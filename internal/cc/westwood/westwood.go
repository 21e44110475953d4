// Package westwood implements TCP Westwood+ (Mascolo et al.):
// Reno-style growth with a bandwidth-estimate-based ("faster") recovery
// — on loss the window is set to the estimated bandwidth-delay product
// instead of being halved blindly. The paper's Sec. 7 names Westwood as
// one of the classic CCAs its Libra parameters extend to; internal/core
// integrates it via the generic window adapter (W-Libra).
package westwood

import (
	"math"
	"time"

	"libra/internal/cc"
)

// Westwood is the controller. Construct with New.
type Westwood struct {
	cfg cc.Config
	mss float64

	cwnd     float64
	ssthresh float64

	// Bandwidth estimation: EWMA over per-sample ack rates, sampled at
	// most once per 50 ms as in the Westwood+ design.
	bwe        float64 // bytes/sec
	ackedSince int
	lastSample time.Duration
	minRTT     time.Duration

	recoverUntil time.Duration
}

// New returns a Westwood+ controller.
func New(cfg cc.Config) *Westwood {
	cfg = cfg.WithDefaults()
	return &Westwood{
		cfg:      cfg,
		mss:      float64(cfg.MSS),
		cwnd:     10 * float64(cfg.MSS),
		ssthresh: math.Inf(1),
	}
}

// Name implements cc.Controller.
func (w *Westwood) Name() string { return "westwood" }

// BWE returns the current bandwidth estimate in bytes/sec.
func (w *Westwood) BWE() float64 { return w.bwe }

// OnAck implements cc.Controller.
func (w *Westwood) OnAck(a *cc.Ack) {
	w.minRTT = a.MinRTT
	w.ackedSince += a.Acked
	if w.lastSample == 0 {
		w.lastSample = a.Now
	} else if dt := (a.Now - w.lastSample).Seconds(); dt >= 0.05 {
		sample := float64(w.ackedSince) / dt
		w.ackedSince = 0
		w.lastSample = a.Now
		const alpha = 0.9 // Westwood+ low-pass filter
		if w.bwe == 0 {
			w.bwe = sample
		} else {
			w.bwe = alpha*w.bwe + (1-alpha)*sample
		}
	}

	if w.cwnd < w.ssthresh {
		w.cwnd += float64(a.Acked)
		if w.cwnd > w.ssthresh {
			w.cwnd = w.ssthresh
		}
		return
	}
	w.cwnd += w.mss * float64(a.Acked) / w.cwnd
}

// OnLoss implements cc.Controller: faster recovery — window becomes the
// estimated BDP.
func (w *Westwood) OnLoss(l *cc.Loss) {
	if l.Timeout {
		w.ssthresh = math.Max(w.bdp(), 2*w.mss)
		w.cwnd = 2 * w.mss
		return
	}
	if l.Now < w.recoverUntil {
		return
	}
	w.recoverUntil = l.Now + 200*time.Millisecond
	w.ssthresh = math.Max(w.bdp(), 2*w.mss)
	w.cwnd = w.ssthresh
}

func (w *Westwood) bdp() float64 {
	if w.bwe <= 0 || w.minRTT <= 0 {
		return w.cwnd / 2
	}
	return w.bwe * w.minRTT.Seconds()
}

// Rate implements cc.Controller; Westwood is window-based.
func (w *Westwood) Rate() float64 { return 0 }

// Window implements cc.Controller.
func (w *Westwood) Window() float64 { return w.cwnd }

// SetWindow overrides the congestion window (bytes); Libra integration.
func (w *Westwood) SetWindow(bytes float64) {
	w.cwnd = math.Max(bytes, 2*w.mss)
	if w.ssthresh < w.cwnd {
		w.ssthresh = w.cwnd
	}
}
