// Package dctcp implements DCTCP (Alizadeh et al., SIGCOMM 2010):
// datacenter congestion control that scales its multiplicative decrease
// by the measured fraction of ECN-marked packets, keeping queues at the
// marking threshold with full throughput. The paper's Sec. 7 proposes
// swapping Libra's classic component for a datacenter CCA "to leverage
// new properties (e.g., ECN marking)"; internal/core integrates this
// package via the generic window adapter (D-Libra).
package dctcp

import (
	"math"
	"time"

	"libra/internal/cc"
)

// g is DCTCP's EWMA gain for the marked fraction (the paper's 1/16).
const g = 1.0 / 16

// DCTCP is the controller. Construct with New.
type DCTCP struct {
	cfg cc.Config
	mss float64

	cwnd     float64
	ssthresh float64

	// Per-window ECN accounting.
	ackedBytes  int
	markedBytes int
	windowEnd   int64 // delivered marker closing the current observation window
	alpha       float64

	lastCut time.Duration
}

// New returns a DCTCP controller.
func New(cfg cc.Config) *DCTCP {
	cfg = cfg.WithDefaults()
	return &DCTCP{
		cfg:      cfg,
		mss:      float64(cfg.MSS),
		cwnd:     10 * float64(cfg.MSS),
		ssthresh: math.Inf(1),
	}
}

// Name implements cc.Controller.
func (d *DCTCP) Name() string { return "dctcp" }

// Alpha returns the smoothed marked fraction.
func (d *DCTCP) Alpha() float64 { return d.alpha }

// OnAck implements cc.Controller: track marks per window of data; once
// per window update alpha and, if marks were seen, cut cwnd by
// alpha/2 — the DCTCP control law.
func (d *DCTCP) OnAck(a *cc.Ack) {
	d.ackedBytes += a.Acked
	if a.ECE {
		d.markedBytes += a.Acked
	}
	if a.Delivered >= d.windowEnd {
		// One observation window (~1 RTT of data) completed.
		frac := 0.0
		if d.ackedBytes > 0 {
			frac = float64(d.markedBytes) / float64(d.ackedBytes)
		}
		d.alpha = (1-g)*d.alpha + g*frac
		marked := d.markedBytes > 0
		d.ackedBytes, d.markedBytes = 0, 0
		d.windowEnd = a.Delivered + int64(d.cwnd)
		if marked && d.cwnd >= d.ssthresh {
			d.cwnd = math.Max(d.cwnd*(1-d.alpha/2), 2*d.mss)
			return
		}
	}

	if d.cwnd < d.ssthresh {
		d.cwnd += float64(a.Acked)
		if a.ECE {
			// Marks end slow start immediately.
			d.ssthresh = d.cwnd
		}
		return
	}
	d.cwnd += d.mss * float64(a.Acked) / d.cwnd
}

// OnLoss implements cc.Controller: real losses fall back to Reno-style
// halving.
func (d *DCTCP) OnLoss(l *cc.Loss) {
	if l.Timeout {
		d.ssthresh = math.Max(d.cwnd/2, 2*d.mss)
		d.cwnd = 2 * d.mss
		return
	}
	if l.Now-d.lastCut < 100*time.Millisecond {
		return
	}
	d.lastCut = l.Now
	d.cwnd = math.Max(d.cwnd/2, 2*d.mss)
	d.ssthresh = d.cwnd
}

// Rate implements cc.Controller; DCTCP is window-based.
func (d *DCTCP) Rate() float64 { return 0 }

// Window implements cc.Controller.
func (d *DCTCP) Window() float64 { return d.cwnd }

// SetWindow overrides the congestion window (bytes); Libra integration.
func (d *DCTCP) SetWindow(bytes float64) {
	d.cwnd = math.Max(bytes, 2*d.mss)
	if d.ssthresh < d.cwnd {
		d.ssthresh = d.cwnd
	}
}
