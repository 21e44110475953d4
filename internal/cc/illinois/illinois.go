// Package illinois implements TCP Illinois (Liu, Başar, Srikant, 2006):
// loss-based AIMD whose additive-increase alpha and multiplicative-
// decrease beta adapt to the measured queueing delay — aggressive when
// the queue is empty, gentle as delay approaches its maximum. The
// paper's Sec. 7 names Illinois among the classics its Libra parameter
// guidance extends to; internal/core integrates it via the generic
// window adapter (I-Libra).
package illinois

import (
	"math"
	"time"

	"libra/internal/cc"
)

// Illinois curve parameters (from the original paper's defaults).
const (
	alphaMax = 10.0
	alphaMin = 0.3
	betaMin  = 0.125
	betaMax  = 0.5
	// Delay thresholds as fractions of the maximum observed queueing
	// delay: below d1 use alphaMax; beta ramps between d2 and d3.
	d1 = 0.01
	d2 = 0.1
	d3 = 0.8
)

// Illinois is the controller. Construct with New.
type Illinois struct {
	cfg cc.Config
	mss float64

	cwnd     float64
	ssthresh float64

	minRTT   time.Duration
	maxDelay float64 // max observed queueing delay, seconds
	avgDelay float64 // EWMA queueing delay, seconds

	recoverUntil time.Duration
}

// New returns an Illinois controller.
func New(cfg cc.Config) *Illinois {
	cfg = cfg.WithDefaults()
	return &Illinois{
		cfg:      cfg,
		mss:      float64(cfg.MSS),
		cwnd:     10 * float64(cfg.MSS),
		ssthresh: math.Inf(1),
	}
}

// Name implements cc.Controller.
func (il *Illinois) Name() string { return "illinois" }

// Alpha returns the current additive-increase step (MSS per RTT).
func (il *Illinois) Alpha() float64 {
	if il.maxDelay <= 0 {
		return alphaMax
	}
	frac := il.avgDelay / il.maxDelay
	if frac <= d1 {
		return alphaMax
	}
	// Inverse relationship: alpha = k1 / (k2 + d), fit through
	// (d1, alphaMax) and (1, alphaMin).
	k2 := (d1*alphaMax - alphaMin) / (alphaMin - alphaMax)
	k1 := alphaMax * (k2 + d1)
	a := k1 / (k2 + frac)
	return math.Max(alphaMin, math.Min(alphaMax, a))
}

// Beta returns the current multiplicative-decrease factor.
func (il *Illinois) Beta() float64 {
	if il.maxDelay <= 0 {
		return betaMin
	}
	frac := il.avgDelay / il.maxDelay
	switch {
	case frac <= d2:
		return betaMin
	case frac >= d3:
		return betaMax
	default:
		return betaMin + (betaMax-betaMin)*(frac-d2)/(d3-d2)
	}
}

// OnAck implements cc.Controller.
func (il *Illinois) OnAck(a *cc.Ack) {
	il.minRTT = a.MinRTT
	qd := (a.RTT - a.MinRTT).Seconds()
	if qd < 0 {
		qd = 0
	}
	const ew = 0.1
	il.avgDelay = (1-ew)*il.avgDelay + ew*qd
	if qd > il.maxDelay {
		il.maxDelay = qd
	}

	if il.cwnd < il.ssthresh {
		il.cwnd += float64(a.Acked)
		if il.cwnd > il.ssthresh {
			il.cwnd = il.ssthresh
		}
		return
	}
	il.cwnd += il.Alpha() * il.mss * float64(a.Acked) / il.cwnd
}

// OnLoss implements cc.Controller.
func (il *Illinois) OnLoss(l *cc.Loss) {
	if l.Timeout {
		il.ssthresh = math.Max(il.cwnd/2, 2*il.mss)
		il.cwnd = 2 * il.mss
		return
	}
	if l.Now < il.recoverUntil {
		return
	}
	il.recoverUntil = l.Now + 200*time.Millisecond
	il.cwnd = math.Max(il.cwnd*(1-il.Beta()), 2*il.mss)
	il.ssthresh = il.cwnd
}

// Rate implements cc.Controller; Illinois is window-based.
func (il *Illinois) Rate() float64 { return 0 }

// Window implements cc.Controller.
func (il *Illinois) Window() float64 { return il.cwnd }

// SetWindow overrides the congestion window (bytes); Libra integration.
func (il *Illinois) SetWindow(bytes float64) {
	il.cwnd = math.Max(bytes, 2*il.mss)
	if il.ssthresh < il.cwnd {
		il.ssthresh = il.cwnd
	}
}
