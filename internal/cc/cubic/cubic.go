// Package cubic implements CUBIC congestion control (Ha, Rhee, Xu —
// RFC 8312), the default loss-based algorithm of the Linux kernel and
// the primary classic component of C-Libra.
package cubic

import (
	"math"
	"time"

	"libra/internal/cc"
)

// CUBIC constants from RFC 8312.
const (
	// C scales the cubic window growth (MSS/sec^3).
	C = 0.4
	// Beta is the multiplicative decrease factor.
	Beta = 0.7
)

// Cubic is a CUBIC controller. Construct with New. All window arithmetic
// is done in MSS units internally, as in the reference implementation.
type Cubic struct {
	cfg cc.Config
	mss float64

	cwnd     float64 // MSS units
	ssthresh float64 // MSS units

	wMax       float64 // window before the last reduction, MSS
	wLastMax   float64 // for fast convergence
	k          float64 // seconds until the plateau
	epochStart time.Duration
	inEpoch    bool

	recoverUntil time.Duration
	lastRTT      time.Duration

	// resumePlateau makes the next epoch start at the plateau point
	// (t = K) instead of the post-loss dip: external *upward* window
	// overrides (SetWindow) represent an operating point to probe
	// *from*, not a loss event, so growth must continue immediately.
	resumePlateau bool
	// overrideWMax, when set, is the previous operating point a
	// *downward* external override should recover towards — the same
	// concave catch-up CUBIC performs after a real loss. Without this
	// memory, every downward override would erase CUBIC's anchor and
	// let competing flows ratchet it to starvation.
	overrideWMax float64
}

// New returns a CUBIC controller with a 10-MSS initial window.
func New(cfg cc.Config) *Cubic {
	cfg = cfg.WithDefaults()
	return &Cubic{
		cfg:      cfg,
		mss:      float64(cfg.MSS),
		cwnd:     10,
		ssthresh: math.Inf(1),
	}
}

// Name implements cc.Controller.
func (c *Cubic) Name() string { return "cubic" }

// OnAck implements cc.Controller: slow start below ssthresh, cubic
// window growth with a TCP-friendly floor above it.
func (c *Cubic) OnAck(a *cc.Ack) {
	c.lastRTT = a.SRTT
	ackedMSS := float64(a.Acked) / c.mss
	if c.cwnd < c.ssthresh {
		c.cwnd += ackedMSS
		if c.cwnd > c.ssthresh {
			c.cwnd = c.ssthresh
		}
		return
	}
	if !c.inEpoch {
		c.startEpoch(a.Now)
	}
	t := (a.Now - c.epochStart).Seconds()
	rtt := a.SRTT.Seconds()

	// Cubic target one RTT ahead.
	target := c.wCubic(t + rtt)
	// TCP-friendly region (RFC 8312 section 4.2).
	wEst := c.wMax*Beta + 3*(1-Beta)/(1+Beta)*(t/math.Max(rtt, 1e-4))
	if target < wEst {
		target = wEst
	}
	if target > c.cwnd {
		c.cwnd += (target - c.cwnd) / c.cwnd * ackedMSS
	} else {
		// Minimal growth to keep probing (as in the kernel's 1/(100*cwnd)).
		c.cwnd += ackedMSS / (100 * c.cwnd)
	}
}

func (c *Cubic) wCubic(t float64) float64 {
	d := t - c.k
	return C*d*d*d + c.wMax
}

func (c *Cubic) startEpoch(now time.Duration) {
	c.inEpoch = true
	c.epochStart = now
	if c.overrideWMax > c.cwnd {
		// Downward override: recover towards the remembered operating
		// point, exactly like the post-loss concave catch-up.
		c.wMax = c.overrideWMax
		c.overrideWMax = 0
		c.k = math.Cbrt((c.wMax - c.cwnd) / C)
		return
	}
	c.overrideWMax = 0
	if c.cwnd < c.wLastMax {
		c.wMax = c.cwnd * (2 - Beta) / 2 // fast convergence
	} else {
		c.wMax = c.cwnd
	}
	if c.wMax < c.cwnd {
		c.k = 0
	} else {
		c.k = math.Cbrt(c.wMax * (1 - Beta) / C)
	}
	if c.resumePlateau {
		// Skip the concave recovery: the window already sits at wMax.
		c.epochStart = now - time.Duration(c.k*float64(time.Second))
		c.resumePlateau = false
	}
}

// OnLoss implements cc.Controller: multiplicative decrease by Beta and a
// new cubic epoch, at most once per RTT-ish guard window.
func (c *Cubic) OnLoss(l *cc.Loss) {
	if l.Timeout {
		c.wLastMax = c.cwnd
		c.ssthresh = math.Max(c.cwnd*Beta, 2)
		c.cwnd = 2
		c.inEpoch = false
		c.recoverUntil = 0
		c.overrideWMax = 0
		return
	}
	if l.Now < c.recoverUntil {
		return
	}
	guard := c.lastRTT
	if guard < 10*time.Millisecond {
		guard = 10 * time.Millisecond
	}
	c.recoverUntil = l.Now + guard
	c.wLastMax = c.cwnd
	c.cwnd = math.Max(c.cwnd*Beta, 2)
	c.ssthresh = c.cwnd
	c.inEpoch = false
	c.resumePlateau = false // a real loss recovers along the full curve
	c.overrideWMax = 0
}

// Rate implements cc.Controller; CUBIC is ACK-clocked (window-based).
func (c *Cubic) Rate() float64 { return 0 }

// Window implements cc.Controller.
func (c *Cubic) Window() float64 { return c.cwnd * c.mss }

// SetWindow overrides the congestion window (bytes) and restarts the
// cubic epoch from the new value. Orca's DRL rescaling and Libra's
// base-rate seeding use this hook.
func (c *Cubic) SetWindow(bytes float64) {
	w := bytes / c.mss
	if w < 2 {
		w = 2
	}
	if w < c.cwnd {
		// Downward: remember a nearby recovery target (capped so the
		// next exploration does not re-attempt a just-rejected rate).
		c.overrideWMax = math.Min(c.cwnd, 1.5*w)
		c.resumePlateau = false
	} else {
		c.overrideWMax = 0
		c.resumePlateau = true
	}
	c.cwnd = w
	if c.ssthresh < w {
		c.ssthresh = w
	}
	c.inEpoch = false
}
