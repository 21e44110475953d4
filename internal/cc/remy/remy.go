// Package remy implements a RemyCC-style rule-table congestion
// controller (Winstein & Balakrishnan, "TCP ex Machina", SIGCOMM 2013).
//
// A RemyCC is a function from a three-signal state — the EWMA of
// inter-ACK arrival times (ack_ewma), the EWMA of the corresponding
// inter-send times (send_ewma), and the ratio of the latest RTT to the
// minimum RTT (rtt_ratio) — to an action: a window multiple m, a window
// increment b, and a minimum intersend pacing gap. The original table
// is produced by a large offline optimisation; we ship a compact
// hand-derived table with the same qualitative structure (aggressive
// when the queue is short, multiplicative back-off as rtt_ratio grows),
// documented as a substitution in DESIGN.md. Custom tables can be
// supplied for experimentation.
package remy

import (
	"math"
	"time"

	"libra/internal/cc"
)

// Rule is one entry of a RemyCC table: a box in signal space plus the
// action to take inside it. Boxes are matched in order; the first match
// wins.
type Rule struct {
	// Bounds on rtt_ratio (inclusive min, exclusive max); Max<=0 means
	// unbounded.
	RTTRatioMin, RTTRatioMax float64
	// Bounds on ack_ewma in milliseconds; Max<=0 means unbounded.
	AckEWMAMin, AckEWMAMax float64
	// WindowMultiple m and WindowIncrement b (in MSS): cwnd = m*cwnd + b.
	WindowMultiple  float64
	WindowIncrement float64
	// IntersendMs is the minimum gap between sends in milliseconds
	// (0 = unpaced).
	IntersendMs float64
}

// DefaultTable returns the shipped rule table.
func DefaultTable() []Rule {
	return []Rule{
		// Queue empty, ACKs arriving briskly: ramp fast.
		{RTTRatioMin: 0, RTTRatioMax: 1.15, AckEWMAMin: 0, AckEWMAMax: 5, WindowMultiple: 1, WindowIncrement: 2},
		// Queue empty, slower ACK clock: ramp moderately.
		{RTTRatioMin: 0, RTTRatioMax: 1.15, WindowMultiple: 1, WindowIncrement: 1},
		// Small standing queue: hold, gentle probe.
		{RTTRatioMin: 1.15, RTTRatioMax: 1.5, WindowMultiple: 1, WindowIncrement: 0.5, IntersendMs: 0.1},
		// Queue building: stop growing.
		{RTTRatioMin: 1.5, RTTRatioMax: 2.0, WindowMultiple: 1, WindowIncrement: 0, IntersendMs: 0.3},
		// Serious queueing: multiplicative decrease.
		{RTTRatioMin: 2.0, RTTRatioMax: 3.0, WindowMultiple: 0.85, WindowIncrement: 0, IntersendMs: 0.5},
		// Bufferbloat: back off hard.
		{RTTRatioMin: 3.0, WindowMultiple: 0.6, WindowIncrement: 0, IntersendMs: 1},
	}
}

// Remy is the rule-table controller. Construct with New.
type Remy struct {
	cfg   cc.Config
	mss   float64
	table []Rule

	cwnd      float64
	intersend time.Duration

	ackEWMA  float64 // ms
	sendEWMA float64 // ms
	lastAck  time.Duration
	minRTT   time.Duration
	lastRTT  time.Duration
	lastAdj  time.Duration
}

// New returns a controller with the default table.
func New(cfg cc.Config) *Remy { return NewWithTable(cfg, DefaultTable()) }

// NewWithTable returns a controller driven by a custom table.
func NewWithTable(cfg cc.Config, table []Rule) *Remy {
	cfg = cfg.WithDefaults()
	return &Remy{
		cfg:   cfg,
		mss:   float64(cfg.MSS),
		table: table,
		cwnd:  10 * float64(cfg.MSS),
	}
}

// Name implements cc.Controller.
func (r *Remy) Name() string { return "remy" }

// match finds the first applicable rule.
func (r *Remy) match(rttRatio float64) *Rule {
	for i := range r.table {
		rule := &r.table[i]
		if rttRatio < rule.RTTRatioMin {
			continue
		}
		if rule.RTTRatioMax > 0 && rttRatio >= rule.RTTRatioMax {
			continue
		}
		if r.ackEWMA < rule.AckEWMAMin {
			continue
		}
		if rule.AckEWMAMax > 0 && r.ackEWMA >= rule.AckEWMAMax {
			continue
		}
		return rule
	}
	return nil
}

// OnAck implements cc.Controller: update the signals and, once per RTT,
// apply the matched rule's action.
func (r *Remy) OnAck(a *cc.Ack) {
	const alpha = 1.0 / 8
	if r.lastAck > 0 {
		gap := float64(a.Now-r.lastAck) / float64(time.Millisecond)
		if r.ackEWMA == 0 {
			r.ackEWMA = gap
		} else {
			r.ackEWMA += alpha * (gap - r.ackEWMA)
		}
	}
	r.lastAck = a.Now
	r.lastRTT = a.RTT
	r.minRTT = a.MinRTT

	if a.Now-r.lastAdj < a.SRTT {
		return
	}
	r.lastAdj = a.Now
	ratio := 1.0
	if r.minRTT > 0 {
		ratio = float64(r.lastRTT) / float64(r.minRTT)
	}
	rule := r.match(ratio)
	if rule == nil {
		return
	}
	r.cwnd = math.Max(rule.WindowMultiple*r.cwnd+rule.WindowIncrement*r.mss, 2*r.mss)
	r.intersend = time.Duration(rule.IntersendMs * float64(time.Millisecond))
}

// OnLoss implements cc.Controller: RemyCCs were trained without an
// explicit loss signal; we apply a conservative halving on timeout only.
func (r *Remy) OnLoss(l *cc.Loss) {
	if l.Timeout {
		r.cwnd = math.Max(r.cwnd/2, 2*r.mss)
	}
}

// Rate implements cc.Controller: the intersend gap maps to a pacing
// rate cap.
func (r *Remy) Rate() float64 {
	if r.intersend <= 0 {
		return 0
	}
	return r.mss / r.intersend.Seconds()
}

// Window implements cc.Controller.
func (r *Remy) Window() float64 { return r.cwnd }
