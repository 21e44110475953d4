// Package vivace implements PCC Vivace (Dong et al., NSDI 2018) —
// online-learning congestion control by gradient ascent on a utility
// function — and PCC Proteus (SIGCOMM 2020), which runs the same
// machinery with a deviation-penalising utility.
//
// Control loop: a starting phase doubles the rate each monitor interval
// (MI) until the measured utility drops, then the controller runs rate
// experiments — one MI at r(1+eps) and one at r(1-eps), in random order
// — and moves the base rate along the measured utility gradient with a
// confidence amplifier and a dynamic change boundary, as in the Vivace
// paper. Feedback is attributed to the MI in which packets were *sent*
// (cc.DeferredMonitor), so decisions use the utility the tested rate
// actually produced, roughly one RTT after the MI closes.
package vivace

import (
	"math"
	"math/rand"
	"time"

	"libra/internal/cc"
	"libra/internal/utility"
)

// Vivace tuning constants from the NSDI'18 paper.
const (
	eps        = 0.05 // probing fraction
	omega0     = 0.05 // initial change boundary (fraction of rate)
	omegaStep  = 0.10 // boundary growth per consecutive same-direction step
	theta0     = 1.0  // gradient-to-Mbps conversion factor
	maxAmplify = 6    // confidence amplifier cap (2^6 x)
	// minMIPackets keeps per-MI loss estimates meaningful at low rates.
	minMIPackets = 5
	maxMI        = 500 * time.Millisecond
	// startStrikesToExit: consecutive utility drops ending slow start;
	// two strikes keep single noisy MIs (stochastic loss) from ending
	// the ramp-up prematurely.
	startStrikesToExit = 2
)

// MI tags for send-time attribution.
const (
	tagStarting = iota
	tagTrialA   // the (1 + sign*eps) MI
	tagTrialB   // the (1 - sign*eps) MI
	tagHold
)

// Vivace is the controller. Construct with New or NewProteus.
type Vivace struct {
	cfg  cc.Config
	name string
	util utility.Func
	rng  *rand.Rand

	dm     cc.DeferredMonitor
	finBuf []cc.TaggedInterval
	srtt   time.Duration

	starting     bool
	rate         float64 // base rate r, bytes/sec
	applied      float64 // rate in force for the current MI
	prevStartU   float64
	startUSeen   bool
	startStrikes int

	plan      []plannedMI
	sign      float64
	trialU    [2]float64
	trialSeen [2]bool
	awaiting  bool // a trial pair is in flight / awaiting finalization

	lastDir float64
	amplify int
	omega   float64
}

type plannedMI struct {
	rate float64
	tag  int
}

// New returns a PCC Vivace controller.
func New(cfg cc.Config) *Vivace { return newWith(cfg, "vivace", utility.DefaultVivace()) }

// NewProteus returns a PCC Proteus controller (Vivace machinery with the
// deviation-penalising utility).
func NewProteus(cfg cc.Config) *Vivace { return newWith(cfg, "proteus", utility.DefaultProteus()) }

func newWith(cfg cc.Config, name string, u utility.Func) *Vivace {
	cfg = cfg.WithDefaults()
	v := &Vivace{
		cfg:      cfg,
		name:     name,
		util:     u,
		rng:      rand.New(rand.NewSource(cfg.Seed ^ 0x9e3779b9)),
		starting: true,
		rate:     cfg.InitialRate,
		omega:    omega0,
	}
	v.applied = v.rate
	return v
}

// Name implements cc.Controller.
func (v *Vivace) Name() string { return v.name }

// OnAck implements cc.Controller: feedback is aggregated per MI by send
// time.
func (v *Vivace) OnAck(a *cc.Ack) {
	v.srtt = a.SRTT
	v.dm.OnAck(a)
}

// OnLoss implements cc.Controller.
func (v *Vivace) OnLoss(l *cc.Loss) { v.dm.OnLoss(l) }

// miLen returns the monitor-interval duration: at least one RTT and at
// least long enough to carry minMIPackets at the applied rate.
func (v *Vivace) miLen() time.Duration {
	mi := v.srtt
	if mi <= 0 {
		mi = 100 * time.Millisecond
	}
	if v.applied > 0 {
		need := time.Duration(float64(minMIPackets*v.cfg.MSS) / v.applied * float64(time.Second))
		if need > mi {
			mi = need
		}
	}
	if mi > maxMI {
		mi = maxMI
	}
	if mi < 10*time.Millisecond {
		mi = 10 * time.Millisecond
	}
	return mi
}

func (v *Vivace) grace() time.Duration {
	if v.srtt > 0 {
		return v.srtt + 10*time.Millisecond
	}
	return 110 * time.Millisecond
}

// utilityOf scores a finalized monitor interval.
func (v *Vivace) utilityOf(iv *cc.IntervalStats) float64 {
	thrMbps := iv.Throughput() * 8 / 1e6
	return v.util.Value(thrMbps, iv.RTTGradient(), iv.LossRate())
}

// OnTick implements cc.Ticker: start the next MI and process any
// finalized ones.
func (v *Vivace) OnTick(now time.Duration) time.Duration {
	// Choose the rate for the MI that begins now.
	var tag int
	switch {
	case len(v.plan) > 0:
		p := v.plan[0]
		v.plan = v.plan[1:]
		v.applied, tag = p.rate, p.tag
	case v.starting:
		v.applied, tag = v.rate, tagStarting
		v.rate = v.cfg.ClampRate(v.rate * 2) // next starting MI doubles
	case !v.awaiting:
		v.beginTrial()
		p := v.plan[0]
		v.plan = v.plan[1:]
		v.applied, tag = p.rate, p.tag
	default:
		v.applied, tag = v.rate, tagHold
	}
	v.dm.Boundary(now, v.applied, tag)

	// Process finalized MIs.
	v.finBuf = v.dm.PopFinalized(now, v.grace(), v.finBuf[:0])
	for i := range v.finBuf {
		v.finalize(&v.finBuf[i])
	}
	return v.miLen()
}

func (v *Vivace) finalize(ti *cc.TaggedInterval) {
	if !ti.Stats.HasFeedback() {
		if ti.Tag == tagTrialA || ti.Tag == tagTrialB {
			// A lost experiment: abandon the pair and retry.
			v.awaiting = false
			v.trialSeen[0], v.trialSeen[1] = false, false
		}
		return
	}
	u := v.utilityOf(&ti.Stats)
	switch ti.Tag {
	case tagStarting:
		if !v.starting {
			return // stale ramp-up results after exit
		}
		if v.startUSeen && u < v.prevStartU {
			v.startStrikes++
			if v.startStrikes >= startStrikesToExit {
				v.starting = false
				// Revert past the overshoot: half the rate of the first
				// MI whose utility dropped.
				v.rate = v.cfg.ClampRate(ti.Stats.AppliedRate / 2)
				v.plan = v.plan[:0]
			}
			return
		}
		v.startStrikes = 0
		v.prevStartU = u
		v.startUSeen = true
	case tagTrialA, tagTrialB:
		idx := 0
		if ti.Tag == tagTrialB {
			idx = 1
		}
		v.trialU[idx] = u
		v.trialSeen[idx] = true
		if v.trialSeen[0] && v.trialSeen[1] {
			v.move(v.trialU[0], v.trialU[1])
			v.trialSeen[0], v.trialSeen[1] = false, false
			v.awaiting = false
		}
	case tagHold:
		// Holds carry no learning signal.
	}
}

func (v *Vivace) beginTrial() {
	v.sign = 1
	if v.rng.Intn(2) == 0 {
		v.sign = -1
	}
	v.plan = append(v.plan,
		plannedMI{rate: v.rate * (1 + v.sign*eps), tag: tagTrialA},
		plannedMI{rate: v.rate * (1 - v.sign*eps), tag: tagTrialB},
	)
	v.awaiting = true
}

// move applies one gradient step given the utilities of the two trial
// MIs (A at +sign*eps, B at -sign*eps).
func (v *Vivace) move(uA, uB float64) {
	rateMbps := v.rate * 8 / 1e6
	uPlus, uMinus := uA, uB
	if v.sign < 0 {
		uPlus, uMinus = uB, uA
	}
	grad := (uPlus - uMinus) / (2 * eps * math.Max(rateMbps, 0.01))

	dir := 1.0
	if grad < 0 {
		dir = -1
	}
	if dir == v.lastDir {
		if v.amplify < maxAmplify {
			v.amplify++
		}
		v.omega += omegaStep
	} else {
		v.amplify = 0
		v.omega = omega0
	}
	v.lastDir = dir

	stepMbps := theta0 * grad * float64(int(1)<<v.amplify)
	boundMbps := v.omega * rateMbps
	if math.Abs(stepMbps) > boundMbps {
		stepMbps = dir * boundMbps
	}
	v.rate = v.cfg.ClampRate(v.rate + stepMbps*1e6/8)
}

// Rate implements cc.Controller.
func (v *Vivace) Rate() float64 { return v.applied }

// Window implements cc.Controller: rate-based, with a loose cap of two
// seconds of data so pacing governs.
func (v *Vivace) Window() float64 { return math.Max(2*v.applied, 4*float64(v.cfg.MSS)) }

// BaseRate exposes the learned base rate (for tests).
func (v *Vivace) BaseRate() float64 { return v.rate }
