// Package copa implements Copa (Arun & Balakrishnan, NSDI 2018):
// delay-based congestion control that steers the sending rate towards
// the target 1/(delta * queueing-delay), with velocity-doubling for fast
// convergence and an optional TCP-competitive mode.
package copa

import (
	"math"
	"time"

	"libra/internal/cc"
)

// DefaultDelta is Copa's default aggressiveness parameter.
const DefaultDelta = 0.5

// Copa is a Copa controller. Construct with New.
type Copa struct {
	cfg   cc.Config
	mss   float64
	delta float64

	cwnd float64 // bytes

	// RTTstanding: min RTT over the most recent srtt/2 window, kept as
	// a monotonic deque (see updateStanding).
	standWin []rttSample
	minRTT   time.Duration

	velocity   float64
	direction  int // +1 up, -1 down, 0 unset
	dirSince   time.Duration
	dirRTTs    int
	lastUpdate time.Duration

	// Competitive-mode detection: if the queue never drains for several
	// RTTs, a buffer-filling competitor is assumed and delta shrinks.
	competitive   bool
	nearEmptySeen time.Duration
}

type rttSample struct {
	at  time.Duration
	rtt time.Duration
}

// New returns a Copa controller with the default delta.
func New(cfg cc.Config) *Copa {
	cfg = cfg.WithDefaults()
	return &Copa{
		cfg:      cfg,
		mss:      float64(cfg.MSS),
		delta:    DefaultDelta,
		cwnd:     10 * float64(cfg.MSS),
		velocity: 1,
	}
}

// Name implements cc.Controller.
func (c *Copa) Name() string { return "copa" }

// OnAck implements cc.Controller.
func (c *Copa) OnAck(a *cc.Ack) {
	if c.minRTT == 0 || a.RTT < c.minRTT {
		c.minRTT = a.RTT
	}
	standing := c.updateStanding(a.Now, a.RTT, a.SRTT/2)

	dq := (standing - c.minRTT).Seconds()
	// Competitive-mode bookkeeping: remember the last time the queue was
	// nearly empty (queueing delay below 10% of minRTT).
	if dq < 0.1*c.minRTT.Seconds() {
		c.nearEmptySeen = a.Now
	}
	if a.Now-c.nearEmptySeen > 5*a.SRTT && a.SRTT > 0 {
		c.competitive = true
	} else {
		c.competitive = false
	}
	delta := c.delta
	if c.competitive {
		delta = c.delta / 2 // more aggressive against buffer-fillers
	}

	var target float64 // bytes/sec
	if dq <= 0 {
		target = math.Inf(1)
	} else {
		target = c.mss / (delta * dq)
	}
	cur := c.cwnd / math.Max(standing.Seconds(), 1e-4)

	dir := 1
	if cur > target {
		dir = -1
	}
	c.updateVelocity(a, dir)

	step := c.velocity * c.mss * float64(a.Acked) / (delta * c.cwnd)
	if dir > 0 {
		c.cwnd += step
	} else {
		c.cwnd = math.Max(c.cwnd-step, 2*c.mss)
	}
}

// updateStanding folds one RTT sample into the RTTstanding window and
// returns its minimum. standWin is a monotonic deque: samples in time
// order with strictly increasing RTT, so its front is the minimum. A
// sample leaves the back only when a newer one at least as small
// arrives; the newer sample stays in the window at least as long, even
// as the window (srtt/2) changes from ACK to ACK, so the front is the
// exact minimum of every sample in the window.
func (c *Copa) updateStanding(now, rtt, win time.Duration) time.Duration {
	n := len(c.standWin)
	for n > 0 && c.standWin[n-1].rtt >= rtt {
		n--
	}
	c.standWin = append(c.standWin[:n], rttSample{at: now, rtt: rtt})
	// Evict expired samples from the front, compacting in place so the
	// backing array is reused.
	cut := 0
	for cut < len(c.standWin) && now-c.standWin[cut].at > win {
		cut++
	}
	if cut > 0 {
		n = copy(c.standWin, c.standWin[cut:])
		c.standWin = c.standWin[:n]
	}
	return c.standWin[0].rtt
}

func (c *Copa) updateVelocity(a *cc.Ack, dir int) {
	if dir != c.direction {
		c.direction = dir
		c.velocity = 1
		c.dirSince = a.Now
		c.dirRTTs = 0
		return
	}
	// Count RTTs in the same direction; after 3, double each RTT.
	if a.Now-c.dirSince >= a.SRTT && a.SRTT > 0 {
		c.dirSince = a.Now
		c.dirRTTs++
		if c.dirRTTs >= 3 {
			c.velocity = math.Min(c.velocity*2, float64(1<<16))
		}
	}
}

// OnLoss implements cc.Controller: Copa reacts to loss only mildly (it
// is delay-controlled), halving on timeout.
func (c *Copa) OnLoss(l *cc.Loss) {
	if l.Timeout {
		c.cwnd = math.Max(c.cwnd/2, 2*c.mss)
		c.velocity = 1
	}
}

// Rate implements cc.Controller; Copa paces at 2*cwnd/RTTstanding, but
// in this emulation the window alone reproduces its behaviour.
func (c *Copa) Rate() float64 { return 0 }

// Window implements cc.Controller.
func (c *Copa) Window() float64 { return c.cwnd }
