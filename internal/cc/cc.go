// Package cc defines the congestion-controller interface shared by every
// algorithm in this repository, plus the monitor-interval aggregation
// the experiment harness builds on.
//
// A Controller consumes per-ACK and per-loss feedback and exposes a pacing
// rate and a congestion window; the network emulation (internal/netem)
// enforces both. Monitor-interval algorithms (PCC, Aurora, the Libra RL
// component) additionally implement Ticker to receive periodic callbacks.
package cc

import (
	"math"
	"time"
)

// Ack is the per-ACK feedback delivered to a controller. The same Ack
// value is reused across calls on the hot path; controllers must not
// retain a pointer to it beyond the call.
type Ack struct {
	// Now is the virtual time the ACK arrived at the sender.
	Now time.Duration
	// RTT is the sample measured by this ACK.
	RTT time.Duration
	// SRTT is the smoothed RTT (EWMA, alpha 1/8) after this sample.
	SRTT time.Duration
	// MinRTT is the minimum RTT observed on the connection so far.
	MinRTT time.Duration
	// Acked is the number of freshly acknowledged bytes.
	Acked int
	// InFlight is the number of unacknowledged bytes after this ACK.
	InFlight int
	// Delivered is the cumulative count of delivered bytes.
	Delivered int64
	// DeliveryRate is a BBR-style delivery-rate sample in bytes/sec
	// (delivered bytes over the interval since the acked packet was sent).
	DeliveryRate float64
	// ECE reports that the acknowledged packet was CE-marked by an
	// ECN-enabled bottleneck (echoed congestion experienced).
	ECE bool
}

// Loss is the per-loss-event feedback delivered to a controller.
type Loss struct {
	// Now is the virtual time the loss was detected.
	Now time.Duration
	// SentAt is the transmission time of the earliest lost packet, used
	// for send-time attribution by DeferredMonitor.
	SentAt time.Duration
	// Lost is the number of bytes declared lost by this event.
	Lost int
	// InFlight is the number of unacknowledged bytes after the loss.
	InFlight int
	// Timeout reports whether the loss was detected by retransmission
	// timeout rather than by duplicate-ACK gap detection.
	Timeout bool
}

// Controller is a congestion-control algorithm. Implementations are
// single-goroutine: the emulator serialises all calls.
type Controller interface {
	// Name identifies the algorithm, e.g. "cubic".
	Name() string
	// OnAck processes acknowledgement feedback.
	OnAck(a *Ack)
	// OnLoss processes a loss event.
	OnLoss(l *Loss)
	// Rate returns the pacing rate in bytes/sec. A zero return means the
	// controller is purely window-limited and the sender may transmit as
	// fast as the window allows.
	Rate() float64
	// Window returns the congestion window in bytes. Rate-based
	// controllers should return a generous cap (e.g. 2x their
	// rate-delay product) so that pacing, not the window, governs.
	Window() float64
}

// Ticker is implemented by controllers that need periodic callbacks in
// addition to ACK clocking (monitor-interval algorithms). The emulator
// calls OnTick at flow start with the start time and thereafter at the
// instants the controller requests; each call returns the delay until the
// next tick. Returning zero or a negative delay stops the timer.
type Ticker interface {
	OnTick(now time.Duration) time.Duration
}

// Stopper is implemented by controllers that hold resources or want a
// final notification when their flow ends.
type Stopper interface {
	Stop(now time.Duration)
}

// Config carries the environment parameters a controller needs at
// construction time.
type Config struct {
	// MSS is the maximum segment size in bytes (default 1500 when zero).
	MSS int
	// Seed seeds any stochastic behaviour of the controller.
	Seed int64
	// InitialRate is the pacing rate before any feedback, bytes/sec
	// (default: 10 MSS per 100 ms).
	InitialRate float64
	// MinRate and MaxRate clamp the controller's rate decisions in
	// bytes/sec. Zero values select defaults (0.02 Mbps and 2000 Mbps).
	MinRate, MaxRate float64
}

// Defaults for Config fields.
const (
	DefaultMSS = 1500
)

// WithDefaults returns cfg with zero fields replaced by defaults.
func (c Config) WithDefaults() Config {
	if c.MSS == 0 {
		c.MSS = DefaultMSS
	}
	if c.InitialRate == 0 {
		c.InitialRate = float64(10*c.MSS) / 0.1
	}
	if c.MinRate == 0 {
		c.MinRate = 0.02e6 / 8
	}
	if c.MaxRate == 0 {
		c.MaxRate = 2000e6 / 8
	}
	return c
}

// ClampRate bounds r to the configured [MinRate, MaxRate]. A NaN rate
// (from any upstream division such as 0/0) clamps to MinRate: NaN fails
// every comparison, and an unclamped NaN pacing rate would disable both
// pacing and the congestion window downstream.
func (c Config) ClampRate(r float64) float64 {
	if math.IsNaN(r) {
		return c.MinRate
	}
	if r < c.MinRate {
		return c.MinRate
	}
	if r > c.MaxRate {
		return c.MaxRate
	}
	return r
}
