package rlcc

import (
	"math"
	"time"

	"libra/internal/cc"
	"libra/internal/rl"
	"libra/internal/telemetry"
)

// ActionMode selects how the agent's scalar action maps to a rate
// change (Sec. 4.2, "Action space").
type ActionMode int

// Action modes evaluated in Fig. 6.
const (
	// AIAD: x_{t+1} = x_t + a_t (a in Mbps).
	AIAD ActionMode = iota
	// MIMDAurora: x*(1+delta*a) for a>=0, x/(1-delta*a) otherwise.
	MIMDAurora
	// MIMDOrca: x * 2^a.
	MIMDOrca
)

// auroraDelta is the Aurora scaling factor the paper sets to 0.025.
const auroraDelta = 0.025

// Config parameterises the RL-based CCA.
type Config struct {
	CC cc.Config
	// Features is the state space; defaults to LibraStateSpace().
	Features []Feature
	// History is h, the number of stacked feature vectors (default 5).
	History int
	// Action selects the rate-update rule (default MIMDAurora).
	Action ActionMode
	// Scale bounds the raw action to [-Scale, Scale] (default 5; Orca
	// mode conventionally uses 2).
	Scale float64
	// Reward weights (defaults w1=1, w2=0.5, w3=10 as in Sec. 5).
	W1, W2, W3 float64
	// RewardXMax fixes the throughput normaliser x_max (bytes/sec) to a
	// known reference — the top of the training environment's capacity
	// range, as Orca normalises by the environment's max bandwidth.
	// Left at zero, x_max is the flow's own observed maximum, which is
	// degenerate: any stable rate then scores w1 exactly, removing the
	// incentive to grow. Default: 200 Mbps (the paper's training
	// ceiling).
	RewardXMax float64
	// UseDelta selects the delta-r reward (default true for Libra).
	UseDelta bool
	// DisableLossTerm drops the loss component (Tab. 3 ablation).
	DisableLossTerm bool
	// RewardFunc, when non-nil, replaces the Alg. 2 reward entirely —
	// the Modified-RL baseline plugs the Eq. 1 utility in here.
	RewardFunc func(throughputMbps, rttGradient, lossRate float64) float64
	// Agent is the shared PPO agent; one is created when nil.
	Agent *rl.PPO
	// Norm is the shared observation normaliser. The policy's inputs
	// are only meaningful under the statistics it was trained with, so
	// the normaliser must travel with the agent; one is created when
	// nil (fresh-training case).
	Norm *rl.RunningNorm
	// PPO configures the agent when it is created here.
	PPO rl.Config
	// Train enables transition recording into the agent's buffer.
	Train bool
	// Deterministic uses the policy mean instead of sampling (inference
	// without exploration noise).
	Deterministic bool
	// Seed drives agent construction when Agent is nil.
	Seed int64
}

// WithDefaults fills zero fields.
func (c Config) WithDefaults() Config {
	c.CC = c.CC.WithDefaults()
	if c.Features == nil {
		c.Features = LibraStateSpace()
	}
	if c.History == 0 {
		c.History = 5
	}
	if c.Scale == 0 {
		if c.Action == MIMDOrca {
			c.Scale = 2
		} else {
			c.Scale = 5
		}
	}
	if c.W1 == 0 {
		c.W1 = 1
	}
	if c.W2 == 0 {
		c.W2 = 0.5
	}
	if c.W3 == 0 {
		c.W3 = 10
	}
	if c.RewardXMax == 0 {
		c.RewardXMax = 200e6 / 8
	}
	return c
}

// ObsDim returns the observation dimension for the config.
func (c Config) ObsDim() int {
	cc := c.WithDefaults()
	return StateWidth(cc.Features) * cc.History
}

// Controller is the RL-based CCA (Alg. 2). It implements cc.Controller
// and cc.Ticker; one decision is made per monitor interval.
type Controller struct {
	cfg   Config
	name  string
	agent *rl.PPO
	ext   *Extractor
	norm  *rl.RunningNorm
	mon   cc.Monitor

	srtt    time.Duration
	rate    float64
	started bool

	stateBuf []float64 // h stacked normalised feature vectors
	featBuf  []float64
	actBuf   []float64 // reused inference action buffer
	width    int

	// Solo-inference results staged between infer and finishTick
	// (training path only; eval writes actBuf directly).
	inferLogp float64
	inferVal  float64

	// Batched-inference plumbing (see batcher.go). noiseBase seeds the
	// per-decision exploration noise; flowID is the deterministic batch
	// ordering key; nextDue is the predicted next OnTick instant the
	// batcher gathers on (-1 until the first tick returns).
	flowID    int
	batcher   *Batcher
	noiseBase uint64
	nextDue   time.Duration

	// One prepped-but-unconsumed tick: the batcher closes the MI and
	// computes the action when the first co-instant flow ticks; this
	// controller's own OnTick then consumes it, so every side effect
	// (rate change, telemetry, pacing) still happens in the flow's own
	// engine callback and event order matches the unbatched run.
	pendingOK      bool
	pendingAt      time.Duration
	pendingNeedAct bool
	pendingRew     float64

	// Pending transition (action taken, awaiting reward).
	haveAction bool
	prevObs    []float64
	prevAct    []float64
	prevLogp   float64
	prevVal    float64

	// Reward normalisation trackers (Alg. 2 line 6).
	xMax float64 // max throughput seen, bytes/sec
	dMin float64 // min delay seen, seconds

	sanitized int64 // non-finite features/actions replaced (see Sanitized)

	prevReward    float64
	haveReward    bool
	lastReward    float64 // exported for telemetry
	episodeReward float64
	episodeRaw    float64 // sum of unshaped per-MI rewards
	decisions     int

	tracer  telemetry.Tracer
	traceID int
	traceOn bool            // cached Enabled(); keeps the hot path branch-cheap
	evBuf   telemetry.Event // reused so enabled-path emits stay alloc-free
}

// New constructs the controller.
func New(name string, cfg Config) *Controller {
	cfg = cfg.WithDefaults()
	width := StateWidth(cfg.Features)
	agent := cfg.Agent
	if agent == nil {
		agent = rl.NewPPO(cfg.Seed, width*cfg.History, 1, cfg.PPO)
	}
	norm := cfg.Norm
	if norm == nil {
		norm = rl.NewRunningNorm(width)
	} else if !cfg.Train {
		// Evaluation flows observe into the normaliser but must not
		// leak those updates to other flows sharing the trained
		// statistics: with a shared mutating normaliser, a flow's
		// inputs would depend on which other flows happened to tick
		// first, making results order- and batch-composition-dependent.
		// Each eval controller works on a private copy; training keeps
		// the shared object because the trainer harvests it afterwards.
		norm = norm.Clone()
	}
	return &Controller{
		cfg:       cfg,
		name:      name,
		agent:     agent,
		ext:       NewExtractor(cfg.Features),
		norm:      norm,
		rate:      cfg.CC.InitialRate,
		stateBuf:  make([]float64, width*cfg.History),
		width:     width,
		noiseBase: rl.Mix(uint64(cfg.Seed)),
		nextDue:   -1,
	}
}

// Name implements cc.Controller.
func (r *Controller) Name() string { return r.name }

// SetTracer wires the telemetry sink; id becomes the Flow field of
// emitted action events. Implements telemetry.Traceable.
func (r *Controller) SetTracer(t telemetry.Tracer, id int) {
	r.tracer = t
	r.traceID = id
	r.traceOn = telemetry.Enabled(t)
}

// Agent returns the underlying PPO agent (for training and persistence).
func (r *Controller) Agent() *rl.PPO { return r.agent }

// OnAck implements cc.Controller.
func (r *Controller) OnAck(a *cc.Ack) {
	r.srtt = a.SRTT
	r.ext.OnAck(a)
	r.mon.OnAck(a)
}

// OnLoss implements cc.Controller.
func (r *Controller) OnLoss(l *cc.Loss) { r.mon.OnLoss(l) }

// miLen returns the decision interval (one smoothed RTT, floored).
func (r *Controller) miLen() time.Duration {
	if r.srtt <= 0 {
		return 100 * time.Millisecond
	}
	mi := r.srtt
	if mi < 20*time.Millisecond {
		mi = 20 * time.Millisecond
	}
	if mi > 500*time.Millisecond {
		mi = 500 * time.Millisecond
	}
	return mi
}

// reward computes the Alg. 2 reward for a closed MI.
func (r *Controller) reward(iv *cc.IntervalStats) float64 {
	if r.cfg.RewardFunc != nil {
		return r.cfg.RewardFunc(iv.Throughput()*8/1e6, iv.RTTGradient(), iv.LossRate())
	}
	thr := iv.Throughput()
	delay := iv.AvgRTT().Seconds()
	loss := iv.LossRate()
	if thr > r.xMax {
		r.xMax = thr
	}
	if delay > 0 && (r.dMin == 0 || delay < r.dMin) {
		r.dMin = delay
	}
	xm := math.Max(r.xMax, 1)
	if r.cfg.RewardXMax > 0 {
		xm = r.cfg.RewardXMax
	}
	dm := math.Max(r.dMin, 1e-4)
	w3 := r.cfg.W3
	if r.cfg.DisableLossTerm {
		w3 = 0
	}
	return r.cfg.W1*thr/xm - r.cfg.W2*delay/dm - w3*loss
}

// OnTick implements cc.Ticker: close the MI, credit the previous action
// with its reward, and emit the next rate decision. With a batcher
// attached (evaluation only), the MI close and the inference may have
// been prepped by the batcher when the first co-instant flow ticked;
// this call then just consumes the staged decision.
func (r *Controller) OnTick(now time.Duration) time.Duration {
	if r.batcher == nil || r.cfg.Train {
		return r.soloTick(now)
	}
	d := r.batchedTick(now)
	r.nextDue = now + d
	return d
}

// soloTick is the sequential path: prep, infer, finish in one call.
func (r *Controller) soloTick(now time.Duration) time.Duration {
	if r.prepTick(now) {
		r.infer()
		r.finishTick(now)
	}
	return r.miLen()
}

// batchedTick consumes the decision the batcher staged for this
// instant, running the gather itself if this flow is the first of its
// cohort to tick. A tick at an instant the batcher did not predict
// (defensive; engine-driven ticks are exactly predictable) falls back
// to the sequential path, which is bit-identical.
func (r *Controller) batchedTick(now time.Duration) time.Duration {
	if !r.pendingOK && r.nextDue == now {
		r.batcher.runInstant(now)
	}
	if r.pendingOK && r.pendingAt == now {
		r.pendingOK = false
		if r.pendingNeedAct {
			r.finishTick(now)
		}
		return r.miLen()
	}
	r.pendingOK = false
	return r.soloTick(now)
}

// prepTick closes the MI at now: reward bookkeeping, crediting the
// previous transition, and building the next normalised state. It
// returns true when an inference (and then finishTick) must follow,
// false when the tick holds the current rate (first tick, or an MI
// without feedback). The shaped reward is staged in pendingRew for
// finishTick's telemetry.
func (r *Controller) prepTick(now time.Duration) bool {
	iv := r.mon.Roll(now)
	if !r.started {
		r.started = true
		return false
	}
	// Paper (Sec. 3): with no ACKs during the interval, keep the same
	// rate decision.
	if !iv.HasFeedback() {
		return false
	}

	raw := r.reward(iv)
	var rew float64
	if r.cfg.UseDelta {
		if r.haveReward {
			rew = raw - r.prevReward
		}
		r.prevReward = raw
		r.haveReward = true
	} else {
		rew = raw
	}
	r.lastReward = rew
	r.episodeReward += rew
	r.episodeRaw += raw
	r.pendingRew = rew

	// Credit the pending transition.
	if r.haveAction && r.cfg.Train {
		r.agent.Store(r.prevObs, r.prevAct, r.prevLogp, rew, r.prevVal, false)
	}

	// Build the next state: shift history, append normalised features.
	// Non-finite features are zeroed before they can poison the running
	// normaliser or the policy (degenerate intervals under injected
	// faults can produce them).
	r.featBuf = r.ext.Extract(iv, r.rate, r.cfg.CC.MSS, r.featBuf[:0])
	r.sanitized += int64(sanitize(r.featBuf))
	r.norm.Observe(r.featBuf)
	copy(r.stateBuf, r.stateBuf[r.width:])
	tail := r.stateBuf[len(r.stateBuf)-r.width:]
	r.norm.Normalize(r.featBuf, tail)
	r.sanitized += int64(sanitize(tail))
	return true
}

// infer runs the policy on the prepped state, leaving the action in
// actBuf (and logp/value staged for training). Training keeps the
// shared-RNG Act path the trainer's rollouts were built on; evaluation
// runs the actor only — the critic's value and the log-probability are
// consumed exclusively by Store, so skipping them is behaviour-neutral
// — with per-decision seeded noise via applyMean.
func (r *Controller) infer() {
	if r.cfg.Train {
		if r.cfg.Deterministic {
			r.actBuf = append(r.actBuf[:0], r.agent.Policy.Mean(r.stateBuf)...)
			r.inferLogp, r.inferVal = 0, 0
		} else {
			act, logp, val := r.agent.Act(r.stateBuf)
			r.actBuf = append(r.actBuf[:0], act...)
			r.inferLogp, r.inferVal = logp, val
		}
		return
	}
	r.applyMean(r.agent.Policy.Mean(r.stateBuf))
}

// applyMean turns a policy mean into this controller's action:
// verbatim when deterministic, otherwise perturbed with exploration
// noise that is a pure function of (flow seed, decision index) — so
// the same decision gets the same noise whether it was evaluated solo
// or in any batch. The batcher scatters batched GEMM rows back
// through this.
func (r *Controller) applyMean(mean []float64) {
	if r.cfg.Deterministic {
		r.actBuf = append(r.actBuf[:0], mean...)
		return
	}
	seed := rl.Mix(r.noiseBase + uint64(r.decisions))
	r.actBuf = r.agent.Policy.SampleFrom(mean, seed, r.actBuf)
}

// finishTick applies the inferred action (actBuf) at now: rate update,
// decision accounting, telemetry, and the training snapshot. It runs
// in the flow's own engine callback even when the inference was
// batched, so event ordering is identical to the sequential path.
func (r *Controller) finishTick(now time.Duration) {
	// A non-finite action holds the current rate instead of corrupting
	// it through applyAction's multiplicative update.
	a := 0.0
	if len(r.actBuf) > 0 && !math.IsNaN(r.actBuf[0]) && !math.IsInf(r.actBuf[0], 0) {
		a = clamp(r.actBuf[0], -1, 1) * r.cfg.Scale
	} else {
		r.sanitized++
	}
	r.applyAction(a)
	r.decisions++
	if r.traceOn {
		r.emitAction(now, a, r.pendingRew)
	}

	if r.cfg.Train {
		r.prevObs = append(r.prevObs[:0], r.stateBuf...)
		r.prevAct = append(r.prevAct[:0], r.actBuf...)
		r.prevLogp = r.inferLogp
		r.prevVal = r.inferVal
		r.haveAction = true
	}
}

// emitAction records one MI decision: the bounded action, the applied
// rate, the shaped reward, and a min/mean/max summary of the raw
// feature vector driving the policy.
func (r *Controller) emitAction(now time.Duration, a, rew float64) {
	fmin, fmax, fsum := math.Inf(1), math.Inf(-1), 0.0
	for _, v := range r.featBuf {
		fmin = math.Min(fmin, v)
		fmax = math.Max(fmax, v)
		fsum += v
	}
	fmean := 0.0
	if len(r.featBuf) > 0 {
		fmean = fsum / float64(len(r.featBuf))
	} else {
		fmin, fmax = 0, 0
	}
	r.evBuf = telemetry.Event{T: int64(now), Type: telemetry.TypeAction, Flow: r.traceID,
		Action: a, Rate: r.rate, Reward: rew, FMin: fmin, FMean: fmean, FMax: fmax}
	r.tracer.Emit(&r.evBuf)
}

// sanitize zeroes non-finite entries in buf and returns how many were
// replaced.
func sanitize(buf []float64) int {
	n := 0
	for i, v := range buf {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			buf[i] = 0
			n++
		}
	}
	return n
}

// Sanitized returns how many non-finite features and actions the
// inference guards have replaced so far (0 in healthy operation).
func (r *Controller) Sanitized() int64 { return r.sanitized }

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// applyAction maps the bounded action onto the new rate.
func (r *Controller) applyAction(a float64) {
	switch r.cfg.Action {
	case AIAD:
		r.rate += a * 1e6 / 8 // a is in Mbps
	case MIMDOrca:
		r.rate *= math.Pow(2, a)
	default: // MIMDAurora
		if a >= 0 {
			r.rate *= 1 + auroraDelta*a
		} else {
			r.rate /= 1 - auroraDelta*a
		}
	}
	r.rate = r.cfg.CC.ClampRate(r.rate)
}

// Rate implements cc.Controller.
func (r *Controller) Rate() float64 { return r.rate }

// SetRate overrides the operating rate (Libra seeds the RL component
// from the winning base rate each control cycle).
func (r *Controller) SetRate(rate float64) {
	r.rate = r.cfg.CC.ClampRate(rate)
}

// Window implements cc.Controller: rate-based.
func (r *Controller) Window() float64 { return math.Max(2*r.rate, 4*float64(r.cfg.CC.MSS)) }

// Stop implements cc.Stopper: finalize the last pending transition and
// leave the batcher's cohort.
func (r *Controller) Stop(now time.Duration) {
	if r.haveAction && r.cfg.Train {
		r.agent.Store(r.prevObs, r.prevAct, r.prevLogp, 0, r.prevVal, true)
		r.haveAction = false
	}
	if r.batcher != nil {
		r.batcher.remove(r)
		r.batcher = nil
	}
}

// EpisodeReward returns the accumulated (shaped) reward since
// construction.
func (r *Controller) EpisodeReward() float64 { return r.episodeReward }

// EpisodeRawReward returns the accumulated unshaped per-MI reward r_t.
// Learning curves plot this sum: in delta-r mode the shaped rewards
// telescope to ~0 per episode and carry no curve information.
func (r *Controller) EpisodeRawReward() float64 { return r.episodeRaw }

// LastReward returns the most recent per-MI reward.
func (r *Controller) LastReward() float64 { return r.lastReward }

// Decisions returns the number of rate decisions taken.
func (r *Controller) Decisions() int { return r.decisions }

// MemBytes estimates controller-resident memory assuming the
// controller owns its agent outright: the agent's models plus the
// per-flow buffers. When the agent is shared across flows this
// overstates the real footprint — summing MemBytes over N flows counts
// the shared weights N times. Shared deployments should account the
// agent once (exp.AgentSet.MemBytes) and add OwnMemBytes per flow.
func (r *Controller) MemBytes() int {
	return r.agent.MemBytes() + r.OwnMemBytes()
}

// OwnMemBytes estimates the memory this flow contributes beyond the
// (possibly shared) agent: state history, feature scratch, and its
// private normaliser statistics.
func (r *Controller) OwnMemBytes() int {
	return 8 * (len(r.stateBuf) + len(r.featBuf) + 4*r.width)
}

// SharesAgent reports whether the controller runs on an agent supplied
// from outside (and therefore possibly shared with other flows).
func (r *Controller) SharesAgent() bool { return r.cfg.Agent != nil }
