// Package orca implements Orca (Abbasloo, Yen, Chao — SIGCOMM 2020):
// "classic meets modern" congestion control where a DRL agent
// periodically rescales the congestion window of an underlying CUBIC
// (cwnd' = cwnd * 2^a, a in [-2, 2]) while CUBIC continues its per-ACK
// evolution between agent decisions. Orca is the paper's closest prior
// work and its main comparison baseline.
package orca

import (
	"math"
	"time"

	"libra/internal/cc"
	"libra/internal/cc/cubic"
	"libra/internal/rl"
	"libra/internal/rlcc"
)

// Orca is the combined controller. Construct with New.
type Orca struct {
	cfg   rlcc.Config
	cubic *cubic.Cubic
	agent *rl.PPO
	ext   *rlcc.Extractor
	norm  *rl.RunningNorm
	mon   cc.Monitor

	srtt     time.Duration
	started  bool
	stateBuf []float64
	featBuf  []float64
	actBuf   []float64 // reused inference action buffer
	width    int
	// noiseBase seeds per-decision exploration noise at evaluation time
	// (see rlcc: actions must not depend on other flows' RNG draws).
	noiseBase uint64

	haveAction bool
	prevObs    []float64
	prevAct    []float64
	prevLogp   float64
	prevVal    float64

	xMax float64
	dMin float64

	episodeReward float64
	decisions     int
}

// New returns an Orca controller. cfg.Agent may carry a shared/trained
// PPO agent; otherwise a fresh one is created.
func New(cfg rlcc.Config) *Orca {
	if cfg.Features == nil {
		cfg = rlcc.OrcaRLConfig(cfg.CC)
	}
	cfg = cfg.WithDefaults()
	cfg.Action = rlcc.MIMDOrca
	width := rlcc.StateWidth(cfg.Features)
	agent := cfg.Agent
	if agent == nil {
		agent = rl.NewPPO(cfg.Seed, width*cfg.History, 1, cfg.PPO)
	}
	norm := cfg.Norm
	if norm == nil {
		norm = rl.NewRunningNorm(width)
	} else if !cfg.Train {
		// Evaluation flows must not mutate shared trained statistics:
		// see rlcc.New. Each flow observes into a private copy.
		norm = norm.Clone()
	}
	return &Orca{
		cfg:       cfg,
		cubic:     cubic.New(cfg.CC),
		agent:     agent,
		ext:       rlcc.NewExtractor(cfg.Features),
		norm:      norm,
		stateBuf:  make([]float64, width*cfg.History),
		width:     width,
		noiseBase: rl.Mix(uint64(cfg.Seed)),
	}
}

// Name implements cc.Controller.
func (o *Orca) Name() string { return "orca" }

// Agent returns the PPO agent for training/persistence.
func (o *Orca) Agent() *rl.PPO { return o.agent }

// Cubic exposes the underlying classic component (tests).
func (o *Orca) Cubic() *cubic.Cubic { return o.cubic }

// OnAck implements cc.Controller: CUBIC handles every ACK; the agent's
// state tracker observes alongside.
func (o *Orca) OnAck(a *cc.Ack) {
	o.srtt = a.SRTT
	o.ext.OnAck(a)
	o.mon.OnAck(a)
	o.cubic.OnAck(a)
}

// OnLoss implements cc.Controller.
func (o *Orca) OnLoss(l *cc.Loss) {
	o.mon.OnLoss(l)
	o.cubic.OnLoss(l)
}

// mtp returns Orca's monitoring period (2 smoothed RTTs, bounded).
func (o *Orca) mtp() time.Duration {
	if o.srtt <= 0 {
		return 200 * time.Millisecond
	}
	mtp := 2 * o.srtt
	if mtp < 40*time.Millisecond {
		mtp = 40 * time.Millisecond
	}
	if mtp > time.Second {
		mtp = time.Second
	}
	return mtp
}

// reward is Orca's absolute reward with the standard weights.
func (o *Orca) reward(iv *cc.IntervalStats) float64 {
	thr := iv.Throughput()
	delay := iv.AvgRTT().Seconds()
	if thr > o.xMax {
		o.xMax = thr
	}
	if delay > 0 && (o.dMin == 0 || delay < o.dMin) {
		o.dMin = delay
	}
	xm := math.Max(o.xMax, 1)
	if o.cfg.RewardXMax > 0 {
		xm = o.cfg.RewardXMax
	}
	dm := math.Max(o.dMin, 1e-4)
	return o.cfg.W1*thr/xm - o.cfg.W2*delay/dm - o.cfg.W3*iv.LossRate()
}

// OnTick implements cc.Ticker: once per monitoring period the agent
// rescales CUBIC's window by 2^a.
func (o *Orca) OnTick(now time.Duration) time.Duration {
	iv := o.mon.Roll(now)
	if !o.started {
		o.started = true
		return o.mtp()
	}
	if !iv.HasFeedback() {
		return o.mtp()
	}
	rew := o.reward(iv)
	o.episodeReward += rew
	if o.haveAction && o.cfg.Train {
		o.agent.Store(o.prevObs, o.prevAct, o.prevLogp, rew, o.prevVal, false)
	}

	rate := o.cubic.Window() / math.Max(o.srtt.Seconds(), 1e-3)
	o.featBuf = o.ext.Extract(iv, rate, o.cfg.CC.MSS, o.featBuf[:0])
	o.norm.Observe(o.featBuf)
	copy(o.stateBuf, o.stateBuf[o.width:])
	o.norm.Normalize(o.featBuf, o.stateBuf[len(o.stateBuf)-o.width:])

	// Training keeps the shared-RNG Act path its rollouts were built
	// on; evaluation runs the actor only (logp/value feed nothing but
	// Store) with per-decision seeded noise, so an action is a pure
	// function of (flow seed, decision index) regardless of which other
	// flows share the agent.
	var act []float64
	var logp, val float64
	if o.cfg.Train {
		act, logp, val = o.agent.Act(o.stateBuf)
	} else {
		mean := o.agent.Policy.Mean(o.stateBuf)
		o.actBuf = o.agent.Policy.SampleFrom(mean, rl.Mix(o.noiseBase+uint64(o.decisions)), o.actBuf)
		act = o.actBuf
	}
	a := act[0]
	if a > 1 {
		a = 1
	} else if a < -1 {
		a = -1
	}
	a *= o.cfg.Scale
	next := o.cubic.Window() * math.Pow(2, a)
	// Cap the rescaled window: the agent's multiplicative action would
	// otherwise compound without bound (real Orca clamps cwnd). Allow
	// up to 8x the highest observed delivery over a 2-SRTT horizon,
	// bounded below so startup can still probe.
	horizon := 2 * o.srtt
	if horizon < 200*time.Millisecond {
		horizon = 200 * time.Millisecond
	}
	maxW := 8 * math.Max(o.xMax, 12500) * horizon.Seconds()
	if next > maxW {
		next = maxW
	}
	o.cubic.SetWindow(next)
	o.decisions++

	if o.cfg.Train {
		o.prevObs = append(o.prevObs[:0], o.stateBuf...)
		o.prevAct = append(o.prevAct[:0], act...)
		o.prevLogp = logp
		o.prevVal = val
		o.haveAction = true
	}
	return o.mtp()
}

// Stop implements cc.Stopper.
func (o *Orca) Stop(now time.Duration) {
	if o.haveAction && o.cfg.Train {
		o.agent.Store(o.prevObs, o.prevAct, o.prevLogp, 0, o.prevVal, true)
		o.haveAction = false
	}
}

// Rate implements cc.Controller: Orca is window-driven like CUBIC.
func (o *Orca) Rate() float64 { return 0 }

// Window implements cc.Controller.
func (o *Orca) Window() float64 { return o.cubic.Window() }

// EpisodeReward returns the accumulated reward (training telemetry).
func (o *Orca) EpisodeReward() float64 { return o.episodeReward }

// Decisions returns the number of DRL interventions taken.
func (o *Orca) Decisions() int { return o.decisions }

// MemBytes estimates controller-resident memory assuming the agent is
// owned outright; see rlcc.Controller.MemBytes for the shared-agent
// caveat.
func (o *Orca) MemBytes() int {
	return o.agent.MemBytes() + o.OwnMemBytes()
}

// OwnMemBytes estimates the per-flow residual beyond the (possibly
// shared) agent; CUBIC's contribution is a few scalars.
func (o *Orca) OwnMemBytes() int {
	return 8*(len(o.stateBuf)+len(o.featBuf)) + 256
}

// SharesAgent reports whether the controller runs on an agent supplied
// from outside (and therefore possibly shared with other flows).
func (o *Orca) SharesAgent() bool { return o.cfg.Agent != nil }
