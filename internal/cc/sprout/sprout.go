// Package sprout implements a Sprout-like forecast-based controller
// (Winstein, Sivaraman, Balakrishnan, NSDI 2013). The original Sprout
// maintains a probabilistic model of cellular link rates and sizes its
// window so that queued data drains within a delay budget with high
// probability. We reproduce that control law with an EWMA bandwidth
// estimator plus a variance-based cautious forecast — the same
// mechanism, with a parametric stand-in for Sprout's Bayesian inference
// (documented substitution; see DESIGN.md).
package sprout

import (
	"math"
	"time"

	"libra/internal/cc"
)

// Tick interval matching Sprout's 20 ms forecast cadence.
const tickInterval = 20 * time.Millisecond

// DelayBudget is the queueing-delay target (Sprout: deliver within
// 100 ms with 95% probability).
const DelayBudget = 100 * time.Millisecond

// Sprout is the controller. Construct with New.
type Sprout struct {
	cfg cc.Config
	mss float64

	ewmaRate float64 // bytes/sec
	ewmaVar  float64 // variance of rate samples
	lastTick time.Duration
	acked    int // bytes acked since last tick
	srtt     time.Duration

	cwnd float64
}

// New returns a Sprout controller.
func New(cfg cc.Config) *Sprout {
	cfg = cfg.WithDefaults()
	return &Sprout{
		cfg:  cfg,
		mss:  float64(cfg.MSS),
		cwnd: 10 * float64(cfg.MSS),
	}
}

// Name implements cc.Controller.
func (s *Sprout) Name() string { return "sprout" }

// OnAck implements cc.Controller: accumulate delivered bytes for the
// next forecast tick.
func (s *Sprout) OnAck(a *cc.Ack) {
	s.acked += a.Acked
	s.srtt = a.SRTT
}

// OnLoss implements cc.Controller. Sprout is forecast-driven; losses
// only matter via the reduced delivery they already cause. A timeout
// resets the window.
func (s *Sprout) OnLoss(l *cc.Loss) {
	if l.Timeout {
		s.cwnd = 2 * s.mss
	}
}

// OnTick implements cc.Ticker: update the rate model and re-derive the
// cautious window every 20 ms.
func (s *Sprout) OnTick(now time.Duration) time.Duration {
	// Sample over at least two RTTs: with window-limited (ACK-clocked)
	// sending, sub-RTT buckets alternate between bursts and silence and
	// the variance estimate would swamp the mean.
	horizon := 2 * s.srtt
	if horizon < 100*time.Millisecond {
		horizon = 100 * time.Millisecond
	}
	if now-s.lastTick < horizon {
		return tickInterval
	}
	dt := (now - s.lastTick).Seconds()
	if dt > 0 {
		sample := float64(s.acked) / dt
		s.acked = 0
		s.lastTick = now
		const alpha = 0.25
		if s.ewmaRate == 0 {
			s.ewmaRate = sample
		} else {
			d := sample - s.ewmaRate
			s.ewmaRate += alpha * d
			s.ewmaVar = (1-alpha)*s.ewmaVar + alpha*d*d
		}
		// Cautious forecast: 5th-percentile-ish rate (mean - 1.64 sigma),
		// floored at 10% of the mean so the flow never stalls.
		cautious := s.ewmaRate - 1.64*math.Sqrt(s.ewmaVar)
		if cautious < 0.1*s.ewmaRate {
			cautious = 0.1 * s.ewmaRate
		}
		// Window: the data the cautious rate drains within the budget.
		w := cautious * DelayBudget.Seconds()
		// Additive probe so the estimator can discover new capacity.
		w += 2 * s.mss
		if w < 2*s.mss {
			w = 2 * s.mss
		}
		s.cwnd = w
	}
	return tickInterval
}

// Rate implements cc.Controller; Sprout is window-based.
func (s *Sprout) Rate() float64 { return 0 }

// Window implements cc.Controller.
func (s *Sprout) Window() float64 { return s.cwnd }
