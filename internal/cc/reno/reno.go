// Package reno implements TCP NewReno congestion control (RFC 5681 /
// RFC 6582 semantics adapted to the byte-counting feedback model of
// internal/cc). It is the simplest loss-based baseline in the suite.
package reno

import (
	"math"

	"libra/internal/cc"
)

// Reno is a NewReno controller. Construct with New.
type Reno struct {
	cfg      cc.Config
	mss      float64
	cwnd     float64 // bytes
	ssthresh float64 // bytes
	// recoverUntil guards against reacting to multiple loss signals from
	// the same window: losses before this delivered mark are ignored.
	recoverUntil int64
}

// New returns a NewReno controller.
func New(cfg cc.Config) *Reno {
	cfg = cfg.WithDefaults()
	mss := float64(cfg.MSS)
	return &Reno{
		cfg:      cfg,
		mss:      mss,
		cwnd:     10 * mss,
		ssthresh: math.Inf(1),
	}
}

// Name implements cc.Controller.
func (r *Reno) Name() string { return "reno" }

// OnAck grows the window: exponentially in slow start, linearly (one MSS
// per RTT) in congestion avoidance.
func (r *Reno) OnAck(a *cc.Ack) {
	if r.cwnd < r.ssthresh {
		r.cwnd += float64(a.Acked)
		if r.cwnd > r.ssthresh {
			r.cwnd = r.ssthresh
		}
		return
	}
	r.cwnd += r.mss * float64(a.Acked) / r.cwnd
}

// OnLoss halves the window (fast recovery) or collapses it (timeout),
// at most once per window of data.
func (r *Reno) OnLoss(l *cc.Loss) {
	if l.Timeout {
		r.ssthresh = math.Max(r.cwnd/2, 2*r.mss)
		r.cwnd = 2 * r.mss
		r.recoverUntil = 0
		return
	}
	// Ignore further losses from the same window.
	if int64(r.cwnd) > 0 && r.recoverUntil > 0 && l.Now.Nanoseconds() < r.recoverUntil {
		return
	}
	r.ssthresh = math.Max(r.cwnd/2, 2*r.mss)
	r.cwnd = r.ssthresh
	// One SRTT-ish guard window: approximate with 100ms floor handled by
	// caller cadence; use the loss timestamp plus a conservative bound.
	r.recoverUntil = l.Now.Nanoseconds() + int64(200e6)
}

// Rate implements cc.Controller; Reno is purely window-based.
func (r *Reno) Rate() float64 { return 0 }

// Window implements cc.Controller.
func (r *Reno) Window() float64 { return r.cwnd }
