// Package vegas implements TCP Vegas (Brakmo & Peterson, 1995), the
// canonical delay-based classic CCA: it keeps between alpha and beta
// packets queued at the bottleneck.
package vegas

import (
	"math"
	"time"

	"libra/internal/cc"
)

// Vegas parameters (packets of backlog to maintain).
const (
	Alpha = 2.0
	Beta  = 4.0
	Gamma = 1.0
)

// Vegas is a Vegas controller. Construct with New.
type Vegas struct {
	cfg cc.Config
	mss float64

	cwnd      float64 // bytes
	ssthresh  float64
	lastAdj   time.Duration
	slowStart bool
}

// New returns a Vegas controller.
func New(cfg cc.Config) *Vegas {
	cfg = cfg.WithDefaults()
	return &Vegas{
		cfg:       cfg,
		mss:       float64(cfg.MSS),
		cwnd:      4 * float64(cfg.MSS),
		ssthresh:  math.Inf(1),
		slowStart: true,
	}
}

// Name implements cc.Controller.
func (v *Vegas) Name() string { return "vegas" }

// OnAck implements cc.Controller: once per RTT, compare the expected and
// actual rates and nudge the window to keep Alpha..Beta packets queued.
func (v *Vegas) OnAck(a *cc.Ack) {
	if a.MinRTT <= 0 || a.RTT <= 0 {
		return
	}
	// diff = (expected - actual) * baseRTT, in packets.
	expected := v.cwnd / a.MinRTT.Seconds()
	actual := v.cwnd / a.SRTT.Seconds()
	diff := (expected - actual) * a.MinRTT.Seconds() / v.mss

	if v.slowStart {
		if diff > Gamma {
			v.slowStart = false
			v.cwnd = math.Max(v.cwnd*3/4, 2*v.mss)
			return
		}
		// Double every other RTT: +0.5 MSS per acked MSS.
		v.cwnd += float64(a.Acked) / 2
		return
	}

	// Adjust once per RTT.
	if a.Now-v.lastAdj < a.SRTT {
		return
	}
	v.lastAdj = a.Now
	switch {
	case diff < Alpha:
		v.cwnd += v.mss
	case diff > Beta:
		v.cwnd = math.Max(v.cwnd-v.mss, 2*v.mss)
	}
}

// OnLoss implements cc.Controller: Vegas falls back to AIMD on loss.
func (v *Vegas) OnLoss(l *cc.Loss) {
	v.slowStart = false
	if l.Timeout {
		v.cwnd = 2 * v.mss
		return
	}
	v.cwnd = math.Max(v.cwnd*3/4, 2*v.mss)
}

// Rate implements cc.Controller; Vegas is window-based.
func (v *Vegas) Rate() float64 { return 0 }

// Window implements cc.Controller.
func (v *Vegas) Window() float64 { return v.cwnd }
