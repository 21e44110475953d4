// Package core implements Libra, the paper's primary contribution: a
// unified congestion-control framework combining a classic CCA with an
// RL-based CCA under a three-stage (exploration / evaluation /
// exploitation) utility-driven control cycle (Sec. 3-4, Alg. 1).
package core

import (
	"time"

	"libra/internal/cc"
	"libra/internal/cc/bbr"
)

// Classic adapts a classic CCA for integration into Libra's control
// cycle (Sec. 4.3): Libra must be able to re-centre the algorithm at
// the winning base rate each cycle and read its current rate decision,
// unifying window-based and rate-based schemes.
type Classic interface {
	cc.Controller
	// SeedRate re-centres the algorithm's operating point at rate
	// (bytes/sec) given the smoothed RTT.
	SeedRate(rate float64, srtt time.Duration, now time.Duration)
	// CurrentRate reports the algorithm's instantaneous rate decision
	// x_cl in bytes/sec.
	CurrentRate(srtt time.Duration) float64
	// StageRTTs returns the exploration and exploitation stage lengths
	// in estimated RTTs (CUBIC: 1 and 1; BBR: 3 and 3 — Sec. 4.3/5).
	StageRTTs() (explore, exploit int)
}

// WindowSetter is any window-based classic CCA that allows its
// congestion window to be overridden (CUBIC, Westwood, Illinois, ...).
type WindowSetter interface {
	cc.Controller
	SetWindow(bytes float64)
}

// WindowAdapter integrates a window-based classic CCA into Libra:
// cwnd/srtt is the rate decision and seeding sets cwnd directly. Over
// CUBIC it is C-Libra's classic; over Westwood or Illinois it realises
// the paper's Sec. 7 claim that the CUBIC parameter settings "can be
// extended to a wide range of classic CCAs (e.g., Westwood, Illinois)".
type WindowAdapter struct {
	WindowSetter
	srtt time.Duration
}

// NewWindowAdapter wraps a window-based classic CCA.
func NewWindowAdapter(c WindowSetter) *WindowAdapter {
	return &WindowAdapter{WindowSetter: c}
}

// OnAck tracks the smoothed RTT alongside the algorithm's own logic.
func (a *WindowAdapter) OnAck(ack *cc.Ack) {
	a.srtt = ack.SRTT
	a.WindowSetter.OnAck(ack)
}

// SeedRate implements Classic: cwnd = rate * srtt, resuming growth from
// the algorithm's own state. Libra skips the call entirely when the
// classic candidate won the cycle, so CUBIC's epoch clock keeps
// advancing and probing accelerates naturally — the "almost no
// modifications" integration of Sec. 4.3.
func (a *WindowAdapter) SeedRate(rate float64, srtt, _ time.Duration) {
	if srtt <= 0 {
		srtt = 100 * time.Millisecond
	}
	a.SetWindow(rate * srtt.Seconds())
}

// CurrentRate implements Classic.
func (a *WindowAdapter) CurrentRate(srtt time.Duration) float64 {
	if srtt <= 0 {
		srtt = a.srtt
	}
	if srtt <= 0 {
		srtt = 100 * time.Millisecond
	}
	return a.Window() / srtt.Seconds()
}

// StageRTTs implements Classic: the CUBIC settings (1 RTT each).
func (a *WindowAdapter) StageRTTs() (int, int) { return 1, 1 }

// BBRAdapter integrates BBR: Libra inherits the first three RTTs of
// BBR's probing cycle (gains 1.25, 0.75, 1) as its exploration stage.
type BBRAdapter struct {
	*bbr.BBR
}

// NewBBRAdapter wraps a fresh BBR instance.
func NewBBRAdapter(cfg cc.Config) *BBRAdapter {
	return &BBRAdapter{BBR: bbr.New(cfg)}
}

// SeedRate implements Classic: re-centre BBR's bandwidth model and
// restart its probe cycle. Two exceptions keep BBR's own machinery
// intact: during STARTUP an upward seed is skipped so the exponential
// ramp (gain 2/ln2) survives Libra's first cycles, and seeds within
// [0.5x, 2x] of BBR's estimate are ignored so the windowed max-BW
// filter — the mechanism BBR uses to defend its share against
// loss-based competitors — is not truncated every control cycle.
func (a *BBRAdapter) SeedRate(rate float64, _, now time.Duration) {
	bw := a.BBR.BW()
	if a.BBR.State() == "STARTUP" && rate >= bw {
		return
	}
	if bw > 0 && rate > 0.5*bw && rate < 2*bw {
		return
	}
	a.BBR.SeedRate(rate, now)
}

// CurrentRate implements Classic: BBR's instantaneous pacing rate
// (gain-multiplied, so the th1=0.3 threshold covers the ±0.25 probing
// swing as the paper prescribes).
func (a *BBRAdapter) CurrentRate(time.Duration) float64 { return a.BBR.Rate() }

// StageRTTs implements Classic: 3 RTTs each (Sec. 5 setup).
func (a *BBRAdapter) StageRTTs() (int, int) { return 3, 3 }
