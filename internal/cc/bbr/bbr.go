// Package bbr implements BBR v1 congestion control (Cardwell et al.,
// "BBR: Congestion-Based Congestion Control"). It is the rate-based
// classic component of B-Libra.
package bbr

import (
	"math"
	"time"

	"libra/internal/cc"
)

// Gains and timing constants from the BBR v1 paper/Linux implementation.
const (
	highGain     = 2.0 / 0.6931471805599453 // 2/ln2 ≈ 2.885
	drainGain    = 1 / highGain
	cwndGain     = 2.0
	probeRTTSecs = 0.2
	minRTTWindow = 10 * time.Second
	bwWindowRTTs = 10
)

// probeGains is the PROBE_BW pacing-gain cycle.
var probeGains = [8]float64{1.25, 0.75, 1, 1, 1, 1, 1, 1}

type state int

const (
	stStartup state = iota
	stDrain
	stProbeBW
	stProbeRTT
)

func (s state) String() string {
	switch s {
	case stStartup:
		return "STARTUP"
	case stDrain:
		return "DRAIN"
	case stProbeBW:
		return "PROBE_BW"
	default:
		return "PROBE_RTT"
	}
}

// bwSample is one delivery-rate observation for the windowed-max filter.
type bwSample struct {
	at time.Duration
	bw float64
}

// BBR is a BBR v1 controller. Construct with New.
type BBR struct {
	cfg cc.Config
	mss float64

	st          state
	bwFilter    []bwSample // monotonic deque, see updateBW
	maxBW       float64
	minRTT      time.Duration
	minRTTAt    time.Duration
	probeIdx    int
	phaseAt     time.Duration
	probeRTTEnd time.Duration

	// Startup full-pipe detection.
	fullBW       float64
	fullBWCount  int
	nextRoundDel int64
	roundStart   bool

	pacingRate float64
	cwnd       float64
}

// New returns a BBR controller.
func New(cfg cc.Config) *BBR {
	cfg = cfg.WithDefaults()
	b := &BBR{
		cfg:        cfg,
		mss:        float64(cfg.MSS),
		st:         stStartup,
		pacingRate: cfg.InitialRate * highGain,
		cwnd:       10 * float64(cfg.MSS),
	}
	return b
}

// Name implements cc.Controller.
func (b *BBR) Name() string { return "bbr" }

// State returns the current state name (for tests and telemetry).
func (b *BBR) State() string { return b.st.String() }

// BW returns the current bottleneck-bandwidth estimate in bytes/sec.
func (b *BBR) BW() float64 { return b.maxBW }

// RTprop returns the current propagation-RTT estimate.
func (b *BBR) RTprop() time.Duration { return b.minRTT }

// OnAck implements cc.Controller and drives the whole state machine.
func (b *BBR) OnAck(a *cc.Ack) {
	// Round accounting for full-pipe detection.
	b.roundStart = false
	if a.Delivered >= b.nextRoundDel {
		b.roundStart = true
		b.nextRoundDel = a.Delivered + int64(a.InFlight)
	}

	// Update filters.
	if a.DeliveryRate > 0 {
		b.updateBW(a.Now, a.DeliveryRate)
	}
	if b.minRTT == 0 || a.RTT <= b.minRTT {
		b.minRTT = a.RTT
		b.minRTTAt = a.Now
	}

	switch b.st {
	case stStartup:
		b.checkFullPipe()
		if b.st == stDrain {
			break
		}
	case stDrain:
		if float64(a.InFlight) <= b.bdp(1) {
			b.enterProbeBW(a.Now)
		}
	case stProbeBW:
		b.advanceCycle(a)
	case stProbeRTT:
		if a.Now >= b.probeRTTEnd {
			b.exitProbeRTT(a.Now)
		}
	}

	// ProbeRTT entry: minRTT stale.
	if b.st != stProbeRTT && b.minRTTAt > 0 && a.Now-b.minRTTAt > minRTTWindow {
		b.enterProbeRTT(a.Now)
	}

	b.updateControls()
}

// updateBW folds one delivery-rate sample into the windowed-max filter.
// bwFilter is a monotonic deque: samples in time order with strictly
// decreasing bw, so its front is the max over the window. A sample
// leaves the back only when a newer one at least as large arrives; the
// newer sample stays in the window at least as long, so the front is
// the exact max of every sample in the window.
func (b *BBR) updateBW(now time.Duration, sample float64) {
	window := time.Duration(bwWindowRTTs) * b.rtpropOr(100*time.Millisecond)
	n := len(b.bwFilter)
	for n > 0 && b.bwFilter[n-1].bw <= sample {
		n--
	}
	b.bwFilter = append(b.bwFilter[:n], bwSample{at: now, bw: sample})
	// Evict expired samples from the front, compacting in place so the
	// backing array is reused.
	cut := 0
	for cut < len(b.bwFilter) && now-b.bwFilter[cut].at > window {
		cut++
	}
	if cut > 0 {
		n = copy(b.bwFilter, b.bwFilter[cut:])
		b.bwFilter = b.bwFilter[:n]
	}
	b.maxBW = b.bwFilter[0].bw
}

func (b *BBR) rtpropOr(def time.Duration) time.Duration {
	if b.minRTT > 0 {
		return b.minRTT
	}
	return def
}

func (b *BBR) bdp(gain float64) float64 {
	return gain * b.maxBW * b.rtpropOr(100*time.Millisecond).Seconds()
}

func (b *BBR) checkFullPipe() {
	if !b.roundStart {
		return
	}
	if b.maxBW > b.fullBW*1.25 {
		b.fullBW = b.maxBW
		b.fullBWCount = 0
		return
	}
	b.fullBWCount++
	if b.fullBWCount >= 3 {
		b.st = stDrain
	}
}

func (b *BBR) enterProbeBW(now time.Duration) {
	b.st = stProbeBW
	// Start in a neutral phase, as Linux does (random phase except 0.75).
	b.probeIdx = 2
	b.phaseAt = now
}

func (b *BBR) advanceCycle(a *cc.Ack) {
	rtprop := b.rtpropOr(100 * time.Millisecond)
	elapsed := a.Now - b.phaseAt
	switch probeGains[b.probeIdx] {
	case 1.25:
		// Stay until an RTT passed and we either filled the pipe or lost.
		if elapsed > rtprop {
			b.nextPhase(a.Now)
		}
	case 0.75:
		// Leave as soon as the surplus queue drained or an RTT passed.
		if elapsed > rtprop || float64(a.InFlight) <= b.bdp(1) {
			b.nextPhase(a.Now)
		}
	default:
		if elapsed > rtprop {
			b.nextPhase(a.Now)
		}
	}
}

func (b *BBR) nextPhase(now time.Duration) {
	b.probeIdx = (b.probeIdx + 1) % len(probeGains)
	b.phaseAt = now
}

func (b *BBR) enterProbeRTT(now time.Duration) {
	b.st = stProbeRTT
	b.probeRTTEnd = now + time.Duration(probeRTTSecs*float64(time.Second))
	b.minRTTAt = now // avoid immediate re-entry
}

func (b *BBR) exitProbeRTT(now time.Duration) {
	if b.fullBWCount >= 3 {
		b.enterProbeBW(now)
	} else {
		b.st = stStartup
	}
}

func (b *BBR) updateControls() {
	var gain float64
	switch b.st {
	case stStartup:
		gain = highGain
	case stDrain:
		gain = drainGain
	case stProbeBW:
		gain = probeGains[b.probeIdx]
	case stProbeRTT:
		gain = 1
	}
	bw := b.maxBW
	if bw <= 0 {
		bw = b.cfg.InitialRate
	}
	b.pacingRate = b.cfg.ClampRate(gain * bw)
	if b.st == stProbeRTT {
		b.cwnd = 4 * b.mss
		return
	}
	g := cwndGain
	if b.st == stStartup {
		g = highGain
	}
	b.cwnd = math.Max(b.bdp(g), 4*b.mss)
}

// OnLoss implements cc.Controller. BBR v1 mostly ignores individual
// losses; a timeout resets to a conservative window.
func (b *BBR) OnLoss(l *cc.Loss) {
	if l.Timeout {
		b.cwnd = 4 * b.mss
	}
}

// Rate implements cc.Controller.
func (b *BBR) Rate() float64 { return b.pacingRate }

// Window implements cc.Controller.
func (b *BBR) Window() float64 { return b.cwnd }

// SeedRate re-centres BBR's bandwidth model on rate (bytes/sec); Libra
// uses this when handing the exploration stage to BBR from a base rate.
func (b *BBR) SeedRate(rate float64, now time.Duration) {
	if rate <= 0 {
		return
	}
	b.bwFilter = append(b.bwFilter[:0], bwSample{at: now, bw: rate})
	b.maxBW = rate
	if b.st == stStartup || b.st == stDrain {
		b.st = stProbeBW
		b.fullBWCount = 3
	}
	b.probeIdx = 0 // restart the probe cycle: 1.25, 0.75, 1 ...
	b.phaseAt = now
	b.updateControls()
}
