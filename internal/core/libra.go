package core

import (
	"math"
	"time"

	"libra/internal/cc"
	"libra/internal/cc/cubic"
	"libra/internal/rlcc"
	"libra/internal/telemetry"
	"libra/internal/utility"
)

// Stage identifies where in the control cycle the sender is.
type Stage int

// The three stages of Fig. 3 (evaluation split into its two EIs).
const (
	StageExplore Stage = iota
	StageEvalFirst
	StageEvalSecond
	StageExploit
)

// String names the stage.
func (s Stage) String() string {
	switch s {
	case StageExplore:
		return "explore"
	case StageEvalFirst:
		return "eval-1"
	case StageEvalSecond:
		return "eval-2"
	default:
		return "exploit"
	}
}

// Candidate identifies the origin of a rate decision (Fig. 17).
type Candidate int

// Candidates compared at the end of each control cycle.
const (
	CandPrev Candidate = iota
	CandClassic
	CandRL
)

// String names the candidate.
func (c Candidate) String() string {
	switch c {
	case CandPrev:
		return "x_prev"
	case CandClassic:
		return "x_cl"
	default:
		return "x_rl"
	}
}

// Interval tags for send-time attribution.
const (
	tagExplore = iota
	tagEvalFirst
	tagEvalSecond
	tagExploit
)

// Config parameterises a Libra sender.
type Config struct {
	CC cc.Config
	// Classic is the underlying classic CCA adapter (default CUBIC).
	Classic Classic
	// RL is the learning-based component (default LibraRLConfig with
	// CC's seed). It must be rate-based.
	RL *rlcc.Controller
	// Util scores monitor intervals (default utility.Default()).
	Util utility.Func
	// ThresholdFrac is th1 as a fraction of the base rate (default 0.3).
	ThresholdFrac float64
	// EIRTTs is the evaluation-interval length in estimated RTTs
	// (default 0.5).
	EIRTTs float64
	// ExploreRTTs / ExploitRTTs override the classic CCA's stage
	// durations when non-zero.
	ExploreRTTs, ExploitRTTs int
	// NoClassic builds Clean-Slate Libra: the framework with only the
	// RL candidate (plus x_prev).
	NoClassic bool
	// HigherRateFirst inverts the evaluation ordering — an ablation
	// switch that demonstrates the side effect of Fig. 4 (the paper's
	// "lower rate first" principle); never enable in production.
	HigherRateFirst bool
	// RecordCycles retains a per-cycle log (Fig. 17 / Fig. 18).
	RecordCycles bool
	// Tracer receives control-cycle events (stage transitions, early
	// exits, per-cycle candidate utilities and the argmax decision,
	// no-ACK fallbacks). Nil or disabled costs one predictable branch
	// on the hot path; SetTracer can rewire after construction.
	Tracer telemetry.Tracer
	// TraceID is the flow ID stamped on emitted events.
	TraceID int
	// Name overrides the reported controller name.
	Name string
}

// WithDefaults fills zero fields.
func (c Config) WithDefaults() Config {
	c.CC = c.CC.WithDefaults()
	if c.Classic == nil && !c.NoClassic {
		c.Classic = NewWindowAdapter(cubic.New(c.CC))
	}
	if c.RL == nil {
		c.RL = rlcc.New("libra-rl", rlcc.LibraRLConfig(c.CC))
	}
	if c.Util == nil {
		c.Util = utility.Default()
	}
	if c.ThresholdFrac == 0 {
		c.ThresholdFrac = 0.3
	}
	if c.EIRTTs == 0 {
		c.EIRTTs = 0.5
	}
	if c.ExploreRTTs == 0 || c.ExploitRTTs == 0 {
		ex, xp := 1, 1
		if c.Classic != nil {
			ex, xp = c.Classic.StageRTTs()
		}
		if c.ExploreRTTs == 0 {
			c.ExploreRTTs = ex
		}
		if c.ExploitRTTs == 0 {
			c.ExploitRTTs = xp
		}
	}
	if c.Name == "" {
		if c.NoClassic {
			c.Name = "cl-libra"
		} else {
			c.Name = "libra"
		}
	}
	return c
}

// CycleRecord logs the outcome of one control cycle.
type CycleRecord struct {
	Start, End       time.Duration
	UPrev, UCl, URl  float64
	HavePrev, HaveCl bool
	HaveRl           bool
	Winner           Candidate
	XPrev            float64 // base rate chosen for the next cycle
	Skipped          bool    // no-feedback rule applied
}

// Telemetry aggregates per-cycle outcomes (Fig. 17).
type Telemetry struct {
	Cycles  int
	Wins    [3]int // indexed by Candidate
	Skipped int
}

// Fraction returns the fraction of decided cycles won by c.
func (t Telemetry) Fraction(c Candidate) float64 {
	decided := t.Cycles - t.Skipped
	if decided <= 0 {
		return 0
	}
	return float64(t.Wins[c]) / float64(decided)
}

// Libra is the combined controller (Alg. 1). It implements
// cc.Controller, cc.Ticker and cc.Stopper.
type Libra struct {
	cfg     Config
	classic Classic
	rl      *rlcc.Controller
	util    utility.Func

	stage      Stage
	stageEnd   time.Duration
	exploreMin time.Duration // earliest instant the th1 early exit may fire
	cycleStart time.Duration
	started    bool

	xPrev, xCl, xRl float64
	evalLowIsCl     bool
	rate            float64

	srtt, minRTT time.Duration

	dm       cc.DeferredMonitor
	finBuf   []cc.TaggedInterval
	gathered [4]cc.IntervalStats
	haveTag  [4]bool
	nextRLMI time.Duration

	lastWinner Candidate

	// baseGrad and baseLoss are the latency gradient and loss rate
	// measured while steadily sending at x_prev (the exploitation
	// stage). Candidates are charged only for growth/loss *beyond*
	// these baselines, so queueing and drops inflicted by competing
	// flows or by stochastic channel loss — which hit every candidate
	// alike — do not masquerade as self-inflicted side effects (Fig. 4's
	// principle). This is what lets Libra hold its share against CUBIC
	// (Fig. 13) and retain utilisation under random loss (Remark 3 /
	// Fig. 10). baseLoss is capped so genuinely excessive loss is
	// always charged.
	baseGrad float64
	baseLoss float64

	// No-ACK watchdog (Sec. 3 hardening). lastAckAt timestamps the most
	// recent ACK; noAckCycles counts consecutive cycles that ended
	// without one. The first silent cycle repeats x_prev (the paper's
	// rule); beyond that the link is presumed down: outage latches and
	// every further silent cycle halves the probe rate so a restored
	// path is not slammed at a stale base rate.
	lastAckAt   time.Duration
	noAckCycles int
	outage      bool

	tel    Telemetry
	cycles []CycleRecord

	tracer   telemetry.Tracer
	traceID  int
	traceOn  bool            // cached Enabled(); keeps the hot path branch-cheap
	spanOpen bool            // a cycle span has begun and not yet ended
	evBuf    telemetry.Event // reused so enabled-path emits stay alloc-free
}

// New constructs a Libra sender.
func New(cfg Config) *Libra {
	cfg = cfg.WithDefaults()
	l := &Libra{
		cfg:     cfg,
		classic: cfg.Classic,
		rl:      cfg.RL,
		util:    cfg.Util,
		xPrev:   cfg.CC.InitialRate,
		rate:    cfg.CC.InitialRate,
	}
	l.SetTracer(cfg.Tracer, cfg.TraceID)
	return l
}

// SetTracer wires (or rewires) the telemetry sink; id becomes the Flow
// field of emitted events. The RL component shares the tracer.
// Implements telemetry.Traceable.
func (l *Libra) SetTracer(t telemetry.Tracer, id int) {
	l.tracer = t
	l.traceID = id
	l.traceOn = telemetry.Enabled(t)
	l.rl.SetTracer(t, id)
}

// Name implements cc.Controller.
func (l *Libra) Name() string { return l.cfg.Name }

// RL exposes the learning-based component.
func (l *Libra) RL() *rlcc.Controller { return l.rl }

// Stage reports the current control-cycle stage.
func (l *Libra) Stage() Stage { return l.stage }

// BaseRate returns the current base sending rate x_prev.
func (l *Libra) BaseRate() float64 { return l.xPrev }

// Telemetry returns the per-cycle win counters.
func (l *Libra) Telemetry() Telemetry { return l.tel }

// CycleLog returns the recorded cycles (empty unless RecordCycles).
func (l *Libra) CycleLog() []CycleRecord { return l.cycles }

// OnAck implements cc.Controller.
func (l *Libra) OnAck(a *cc.Ack) {
	l.srtt = a.SRTT
	l.minRTT = a.MinRTT
	if l.outage {
		l.recoverFromOutage(a.Now)
	}
	l.lastAckAt = a.Now
	l.dm.OnAck(a)
	l.rl.OnAck(a) // cheap running-signal updates; inference is gated
	if l.classic != nil {
		l.classic.OnAck(a)
	}
	if l.stage == StageExplore {
		if l.classic != nil {
			l.rate = l.cfg.CC.ClampRate(l.classic.CurrentRate(l.srtt))
		} else {
			l.rate = l.rl.Rate()
		}
		// Early exit: candidate divergence beyond th1 (Alg. 1 line 10).
		// The check only arms once exploration has run for at least half
		// its budget: competitor-induced SRTT jitter would otherwise
		// trip the threshold on the first ACK of every cycle, so the
		// classic CCA never gets to move and no candidate ever proposes
		// a higher rate.
		if l.classic != nil && a.Now >= l.exploreMin {
			xcl := l.classic.CurrentRate(l.srtt)
			xrl := l.rl.Rate()
			if math.Abs(xcl-xrl) >= l.cfg.ThresholdFrac*l.xPrev {
				if l.traceOn {
					l.evBuf = telemetry.Event{T: int64(a.Now), Type: telemetry.TypeEarlyExit,
						Flow: l.traceID, XPrev: l.xPrev, XCl: xcl, XRl: xrl}
					l.tracer.Emit(&l.evBuf)
				}
				l.advance(a.Now)
			}
		}
	}
}

// OnLoss implements cc.Controller.
func (l *Libra) OnLoss(ls *cc.Loss) {
	l.dm.OnLoss(ls)
	l.rl.OnLoss(ls)
	if l.classic != nil {
		l.classic.OnLoss(ls)
	}
	if l.stage == StageExplore && l.classic != nil {
		l.rate = l.cfg.CC.ClampRate(l.classic.CurrentRate(l.srtt))
	}
}

// rttEst returns the RTT estimate used for stage durations.
func (l *Libra) rttEst() time.Duration {
	if l.srtt > 0 {
		return l.srtt
	}
	return 100 * time.Millisecond
}

// OnTick implements cc.Ticker: a fine-grained clock that drives stage
// deadlines and the RL component's monitor intervals.
func (l *Libra) OnTick(now time.Duration) time.Duration {
	if !l.started {
		l.started = true
		l.startCycle(now)
	}
	if l.stage == StageExplore && now >= l.nextRLMI {
		l.rl.OnTick(now)
		l.nextRLMI = now + l.rttEst()
		if l.classic == nil {
			l.rate = l.rl.Rate()
		}
	}
	for now >= l.stageEnd {
		l.advance(now)
	}
	dt := l.rttEst() / 4
	if dt < time.Millisecond {
		dt = time.Millisecond
	}
	if dt > 50*time.Millisecond {
		dt = 50 * time.Millisecond
	}
	return dt
}

// startCycle begins a new exploration stage from the base rate x_prev.
func (l *Libra) startCycle(now time.Duration) {
	l.stage = StageExplore
	l.cycleStart = now
	rtt := l.rttEst()
	if l.classic != nil {
		// When the classic candidate won, its internal state already
		// embodies x_prev; re-seeding would reset its probing epoch.
		if l.lastWinner != CandClassic {
			l.classic.SeedRate(l.xPrev, rtt, now)
		}
		l.rate = l.cfg.CC.ClampRate(l.classic.CurrentRate(rtt))
	} else {
		l.rate = l.xPrev
	}
	l.rl.SetRate(l.xPrev)
	l.rl.OnTick(now) // open a fresh RL monitor interval
	l.nextRLMI = now + rtt
	l.dm.Boundary(now, l.xPrev, tagExplore)
	l.stageEnd = now + time.Duration(l.cfg.ExploreRTTs)*rtt
	l.exploreMin = now + time.Duration(l.cfg.ExploreRTTs)*rtt/2
	for i := range l.haveTag {
		l.haveTag[i] = false
	}
	if l.traceOn {
		// An abandoned cycle (outage recovery restarts mid-cycle) is
		// closed before the new span begins, so B/E events stay paired.
		l.emitCycleSpan(now, false)
		l.emitCycleSpan(now, true)
		l.emitStage(now)
	}
}

// emitStage records entry into the current stage at the applied rate.
func (l *Libra) emitStage(now time.Duration) {
	l.evBuf = telemetry.Event{T: int64(now), Type: telemetry.TypeStage, Flow: l.traceID,
		Stage: l.stage.String(), Rate: l.rate, XPrev: l.xPrev}
	l.tracer.Emit(&l.evBuf)
}

// emitCycleSpan records a control-cycle span boundary. Begins carry
// the base rate the cycle starts from; an end without a matching begin
// is suppressed, so callers may close defensively.
func (l *Libra) emitCycleSpan(now time.Duration, begin bool) {
	if begin {
		l.spanOpen = true
		l.evBuf = telemetry.Event{T: int64(now), Type: telemetry.TypeSpan, Flow: l.traceID,
			Reason: telemetry.SpanBegin, Name: "cycle", XPrev: l.xPrev}
	} else {
		if !l.spanOpen {
			return
		}
		l.spanOpen = false
		l.evBuf = telemetry.Event{T: int64(now), Type: telemetry.TypeSpan, Flow: l.traceID,
			Reason: telemetry.SpanEnd, Name: "cycle"}
	}
	l.tracer.Emit(&l.evBuf)
}

// eiLen returns the evaluation-interval duration for a candidate rate:
// the configured fraction of an RTT, floored so the interval carries at
// least a handful of packets (meaningful loss/throughput estimates at
// low rates), capped to stay responsive.
func (l *Libra) eiLen(rate float64) time.Duration {
	rtt := l.rttEst()
	ei := time.Duration(l.cfg.EIRTTs * float64(rtt))
	if rate > 0 {
		need := time.Duration(float64(4*l.cfg.CC.MSS) / rate * float64(time.Second))
		if need > ei {
			ei = need
		}
	}
	if maxEI := 250 * time.Millisecond; ei > maxEI {
		ei = maxEI
	}
	return ei
}

// advance moves to the next stage.
func (l *Libra) advance(now time.Duration) {
	rtt := l.rttEst()
	switch l.stage {
	case StageExplore:
		if l.classic != nil {
			l.xCl = l.cfg.CC.ClampRate(l.classic.CurrentRate(rtt))
		}
		l.xRl = l.rl.Rate()
		if math.IsNaN(l.xRl) || math.IsInf(l.xRl, 0) || l.xRl <= 0 {
			// Inference guard: a poisoned RL rate falls back to the
			// classic arm (or the base rate when there is none) instead
			// of contaminating the candidate comparison.
			if l.classic != nil {
				l.xRl = l.xCl
			} else {
				l.xRl = l.xPrev
			}
		}
		if l.cfg.NoClassic {
			// CL-Libra: single candidate EI.
			l.stage = StageEvalSecond
			l.rate = l.xRl
			l.evalLowIsCl = false
			l.dm.Boundary(now, l.xRl, tagEvalSecond)
			l.stageEnd = now + l.eiLen(l.rate)
			if l.traceOn {
				l.emitStage(now)
			}
			return
		}
		// Lower rate first (Sec. 4.1, Fig. 4).
		l.evalLowIsCl = l.xCl <= l.xRl
		if l.cfg.HigherRateFirst {
			l.evalLowIsCl = !l.evalLowIsCl // ablation: invert the order
		}
		l.stage = StageEvalFirst
		if l.evalLowIsCl {
			l.rate = l.xCl
		} else {
			l.rate = l.xRl
		}
		l.dm.Boundary(now, l.rate, tagEvalFirst)
		l.stageEnd = now + l.eiLen(l.rate)
		if l.traceOn {
			l.emitStage(now)
		}
	case StageEvalFirst:
		l.stage = StageEvalSecond
		if l.evalLowIsCl {
			l.rate = l.xRl
		} else {
			l.rate = l.xCl
		}
		l.dm.Boundary(now, l.rate, tagEvalSecond)
		l.stageEnd = now + l.eiLen(l.rate)
		if l.traceOn {
			l.emitStage(now)
		}
	case StageEvalSecond:
		l.stage = StageExploit
		l.rate = l.xPrev
		l.dm.Boundary(now, l.xPrev, tagExploit)
		l.stageEnd = now + time.Duration(l.cfg.ExploitRTTs)*rtt
		if l.traceOn {
			l.emitStage(now)
		}
	case StageExploit:
		l.decide(now)
		l.startCycle(now)
	}
}

// intervalTerms reduces an interval to the three inputs of the Eq. 1
// utility — throughput in Mbit/s, the differential latency gradient
// (candidate gradient minus the exploitation-stage baseline), and the
// differential loss rate. decide() scores them through the configured
// utility function and the decision telemetry event carries the
// winner's triple so analyzers can decompose its utility into the
// throughput / delay-penalty / loss-penalty terms.
func (l *Libra) intervalTerms(iv *cc.IntervalStats) (thrMbps, grad, loss float64) {
	loss = iv.LossRate() - l.baseLoss
	if loss < 0 {
		loss = 0
	}
	grad = iv.RTTGradient() - math.Max(0, l.baseGrad)
	thr := iv.Throughput()
	// Lemma A.4(i) denoising: an interval that completed without any
	// marginal congestion signal sustained its applied rate — score it
	// at that rate. Without this, sub-RTT sampling noise makes the
	// throughput term a lottery and the argmax drifts towards the
	// lowest candidate (whose downward reach exceeds the classic's
	// one-RTT probe), starving Libra against competing flows.
	if grad <= 1e-3 && loss <= 1e-3 && iv.RTTCount >= 2 && iv.AppliedRate > thr {
		thr = iv.AppliedRate
	}
	return thr * 8 / 1e6, grad, loss
}

// utilityOf scores an interval with the configured utility function.
func (l *Libra) utilityOf(iv *cc.IntervalStats) float64 {
	return l.util.Value(l.intervalTerms(iv))
}

// decide implements Alg. 1 lines 20-22: gather the finalized intervals
// of this cycle, compute the three utilities, and pick the next base
// rate.
func (l *Libra) decide(now time.Duration) {
	l.finBuf = l.dm.PopFinalized(now, l.rttEst(), l.finBuf[:0])
	for i := range l.finBuf {
		ti := &l.finBuf[i]
		if ti.Tag == tagExploit && ti.Stats.HasFeedback() {
			// Exploitation intervals (which finalize one cycle late)
			// refresh the steady-state baselines. The loss baseline is
			// capped at 12% so runaway self-inflicted loss can never be
			// written off as background.
			l.baseGrad = ti.Stats.RTTGradient()
			l.baseLoss = math.Min(ti.Stats.LossRate(), 0.12)
		}
		if ti.Stats.Start >= l.cycleStart && ti.Tag < len(l.haveTag) {
			l.gathered[ti.Tag] = ti.Stats
			l.haveTag[ti.Tag] = true
		}
	}
	l.tel.Cycles++

	rec := CycleRecord{Start: l.cycleStart, End: now}
	// Map the two EIs back to their candidates.
	var uCl, uRl, uPrev float64
	var haveCl, haveRl, havePrev bool
	first, second := tagEvalFirst, tagEvalSecond
	if l.haveTag[first] && l.gathered[first].HasFeedback() {
		u := l.utilityOf(&l.gathered[first])
		if l.evalLowIsCl {
			uCl, haveCl = u, true
		} else {
			uRl, haveRl = u, true
		}
	}
	if l.haveTag[second] && l.gathered[second].HasFeedback() {
		u := l.utilityOf(&l.gathered[second])
		if l.evalLowIsCl || l.cfg.NoClassic {
			uRl, haveRl = u, true
		} else {
			uCl, haveCl = u, true
		}
	}
	if l.haveTag[tagExplore] && l.gathered[tagExplore].HasFeedback() {
		uPrev, havePrev = l.utilityOf(&l.gathered[tagExplore]), true
	}

	if !havePrev && !haveCl && !haveRl {
		// No feedback anywhere: repeat the current base rate (Sec. 3).
		var reason string
		if l.lastAckAt < l.cycleStart {
			// Not a single ACK all cycle: the watchdog arms. One silent
			// cycle is the paper's fallback; from the second onwards the
			// link is treated as down and the probe rate decays.
			l.noAckCycles++
			if l.noAckCycles >= 2 {
				l.outage = true
				l.xPrev = l.cfg.CC.ClampRate(l.xPrev / 2)
				reason = "decay"
			}
		} else {
			l.noAckCycles = 0
		}
		l.tel.Skipped++
		rec.Skipped = true
		rec.XPrev = l.xPrev
		if l.cfg.RecordCycles {
			l.cycles = append(l.cycles, rec)
		}
		if l.traceOn {
			l.evBuf = telemetry.Event{T: int64(now), Type: telemetry.TypeNoAck,
				Flow: l.traceID, XPrev: l.xPrev, Reason: reason, RTT: int64(l.srtt)}
			l.tracer.Emit(&l.evBuf)
			l.emitCycleSpan(now, false)
		}
		return
	}
	l.noAckCycles = 0

	winner := CandPrev
	best := math.Inf(-1)
	if havePrev {
		best = uPrev
	}
	if haveCl && uCl > best {
		best, winner = uCl, CandClassic
	}
	if haveRl && uRl > best {
		best, winner = uRl, CandRL
	}
	switch winner {
	case CandClassic:
		l.xPrev = l.xCl
	case CandRL:
		l.xPrev = l.xRl
	case CandPrev:
		// The exploration behaviour won. Its representative rate is the
		// throughput it actually achieved — with CUBIC this is ~x_prev,
		// but BBR's gain-cycled exploration can deliver well above the
		// stale base, and adopting the measured rate is what lets
		// B-Libra inherit BBR's ramp-up.
		iv := &l.gathered[tagExplore]
		if thr := iv.Throughput(); thr > 0 && iv.Elapsed() >= l.rttEst()/2 {
			// Guard against short-interval measurement spikes: adopt at
			// most a 3x step (BBR's startup gain is 2.89).
			l.xPrev = math.Min(thr, 3*l.xPrev)
		}
	}
	l.xPrev = l.cfg.CC.ClampRate(l.xPrev)
	l.lastWinner = winner
	l.tel.Wins[winner]++

	rec.UPrev, rec.UCl, rec.URl = uPrev, uCl, uRl
	rec.HavePrev, rec.HaveCl, rec.HaveRl = havePrev, haveCl, haveRl
	rec.Winner = winner
	rec.XPrev = l.xPrev
	if l.cfg.RecordCycles {
		l.cycles = append(l.cycles, rec)
	}
	if l.traceOn {
		l.evBuf = telemetry.Event{T: int64(now), Type: telemetry.TypeDecision,
			Flow: l.traceID, Winner: winner.String(),
			XPrev: l.xPrev, XCl: l.xCl, XRl: l.xRl, RTT: int64(l.srtt)}
		if havePrev {
			l.evBuf.UPrev = uPrev
		}
		if haveCl {
			l.evBuf.UCl = uCl
		}
		if haveRl {
			l.evBuf.URl = uRl
		}
		// Attach the winner's scored triple (throughput Mbit/s,
		// differential gradient, differential loss) so the analyzer can
		// decompose its utility into the Eq. 1 terms without replaying
		// interval accounting.
		if iv := l.winnerInterval(winner); iv != nil {
			l.evBuf.Thr, l.evBuf.Grad, l.evBuf.Loss = l.intervalTerms(iv)
		}
		l.tracer.Emit(&l.evBuf)
		l.emitCycleSpan(now, false)
	}
}

// winnerInterval maps a decided candidate back to the gathered
// interval its utility was scored on (nil when that interval carried
// no feedback — possible when the winner was decided on another arm's
// absence). The EI→candidate mapping mirrors decide(): the first EI
// holds the lower-rate candidate, the second the higher (Fig. 4's
// lower-rate-first principle), and CL-Libra's single EI is always RL.
func (l *Libra) winnerInterval(w Candidate) *cc.IntervalStats {
	tag := -1
	switch w {
	case CandPrev:
		tag = tagExplore
	case CandClassic:
		if l.evalLowIsCl {
			tag = tagEvalFirst
		} else {
			tag = tagEvalSecond
		}
	case CandRL:
		if l.evalLowIsCl || l.cfg.NoClassic {
			tag = tagEvalSecond
		} else {
			tag = tagEvalFirst
		}
	}
	if tag < 0 || !l.haveTag[tag] || !l.gathered[tag].HasFeedback() {
		return nil
	}
	return &l.gathered[tag]
}

// recoverFromOutage re-enters the control cycle cleanly after a
// blackout: the watchdog state clears, the stale steady-state baselines
// (measured on the pre-outage path) are discarded, and a fresh
// exploration stage starts from the decayed base rate. Forcing
// lastWinner to CandPrev makes startCycle re-seed the classic CCA,
// whose internal state still reflects the dead link.
func (l *Libra) recoverFromOutage(now time.Duration) {
	l.outage = false
	l.noAckCycles = 0
	l.baseGrad = 0
	l.baseLoss = 0
	l.lastWinner = CandPrev
	if l.traceOn {
		l.evBuf = telemetry.Event{T: int64(now), Type: telemetry.TypeNoAck,
			Flow: l.traceID, XPrev: l.xPrev, Reason: "recover"}
		l.tracer.Emit(&l.evBuf)
	}
	l.startCycle(now)
}

// Outage reports whether the no-ACK watchdog currently presumes the
// path is down.
func (l *Libra) Outage() bool { return l.outage }

// Rate implements cc.Controller.
func (l *Libra) Rate() float64 { return l.rate }

// Window implements cc.Controller: Libra is purely rate-paced, so the
// window is a loose two-seconds-of-data cap. A tight per-stage BDP cap
// would let a low-rate evaluation interval inherit the previous stage's
// inflight and block its own packets, corrupting the measurement.
func (l *Libra) Window() float64 {
	return math.Max(2*l.rate, 4*float64(l.cfg.CC.MSS))
}

// Stop implements cc.Stopper.
func (l *Libra) Stop(now time.Duration) {
	if st, ok := interface{}(l.rl).(cc.Stopper); ok {
		st.Stop(now)
	}
}

// MemBytes estimates controller-resident memory: the RL component's
// models plus the framework's interval bookkeeping. Assumes the agent
// is owned outright; see rlcc.Controller.MemBytes for the shared-agent
// caveat.
func (l *Libra) MemBytes() int {
	return l.rl.MemBytes() + 1024
}

// OwnMemBytes is the per-flow residual beyond a possibly shared agent:
// the RL component's buffers plus ~1 KB of framework scalars.
func (l *Libra) OwnMemBytes() int { return l.rl.OwnMemBytes() + 1024 }

// SharesAgent reports whether the RL component runs on an externally
// supplied (possibly shared) agent.
func (l *Libra) SharesAgent() bool { return l.rl.SharesAgent() }
