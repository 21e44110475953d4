package core

import (
	"testing"
	"time"

	"libra/internal/cc"
	"libra/internal/rlcc"
)

// silentCycle ticks the controller (with zero ACKs) until one more
// control cycle completes, returning the clock it advanced to.
func silentCycle(t *testing.T, l *Libra, now time.Duration) time.Duration {
	t.Helper()
	start := l.Telemetry().Cycles
	for i := 0; i < 400 && l.Telemetry().Cycles == start; i++ {
		now += 50 * time.Millisecond
		l.OnTick(now)
	}
	if l.Telemetry().Cycles == start {
		t.Fatal("cycle never completed")
	}
	return now
}

func ack(now time.Duration) *cc.Ack {
	return &cc.Ack{Now: now, RTT: 40 * time.Millisecond, SRTT: 40 * time.Millisecond,
		MinRTT: 40 * time.Millisecond, Acked: 1500}
}

// TestNoAckExplorationKeepsPreviousXRl pins the paper's Sec. 3 rule:
// an exploration stage without any ACK leaves the RL candidate at its
// previous rate (the RL component repeats its decision without
// feedback).
func TestNoAckExplorationKeepsPreviousXRl(t *testing.T) {
	l := New(Config{CC: cc.Config{Seed: 21}})
	l.OnTick(0)
	prev := l.rl.Rate()
	now := time.Duration(0)
	for i := 0; i < 100 && l.Stage() == StageExplore; i++ {
		now += 10 * time.Millisecond
		l.OnTick(now)
	}
	if l.Stage() == StageExplore {
		t.Fatal("exploration never ended")
	}
	if l.xRl != prev {
		t.Fatalf("x_rl moved without feedback: %v -> %v", prev, l.xRl)
	}
}

// TestNoAckCycleReusesXPrev pins the other Sec. 3 rule: the first
// fully silent cycle repeats the base rate unchanged (the watchdog only
// escalates beyond it).
func TestNoAckCycleReusesXPrev(t *testing.T) {
	l := New(Config{CC: cc.Config{Seed: 22}, RecordCycles: true})
	l.OnTick(0)
	base := l.BaseRate()
	now := silentCycle(t, l, 0) // startup cycle: watchdog not yet armed
	silentCycle(t, l, now)      // first armed silent cycle
	if l.Telemetry().Skipped < 2 {
		t.Fatalf("silent cycles should be skipped, got %d", l.Telemetry().Skipped)
	}
	if l.BaseRate() != base {
		t.Fatalf("first silent cycles must keep x_prev: %v -> %v", base, l.BaseRate())
	}
	if l.Outage() {
		t.Fatal("outage must not latch after a single armed silent cycle")
	}
}

// TestWatchdogDecaysDuringOutage checks the escalation beyond the
// paper's rule: from the second consecutive silent cycle the base rate
// halves each cycle, floored at MinRate, and the outage flag latches.
func TestWatchdogDecaysDuringOutage(t *testing.T) {
	l := New(Config{CC: cc.Config{Seed: 23}})
	l.OnTick(0)
	base := l.BaseRate()
	now := silentCycle(t, l, 0)  // startup (not armed)
	now = silentCycle(t, l, now) // noAckCycles=1: keep
	now = silentCycle(t, l, now) // noAckCycles=2: decay
	if !l.Outage() {
		t.Fatal("outage should latch after two armed silent cycles")
	}
	if got := l.BaseRate(); got > base/2+1 {
		t.Fatalf("base rate should have halved: %v -> %v", base, got)
	}
	// Decay must floor at MinRate, not collapse to zero.
	for i := 0; i < 40; i++ {
		now = silentCycle(t, l, now)
	}
	min := l.cfg.CC.MinRate
	if got := l.BaseRate(); got != min {
		t.Fatalf("decay floor: got %v want MinRate %v", got, min)
	}
}

// TestOutageRecoveryRestartsCycle checks clean re-entry: the first ACK
// after an outage clears the watchdog, discards stale baselines, and
// restarts the control cycle at the ACK instant.
func TestOutageRecoveryRestartsCycle(t *testing.T) {
	l := New(Config{CC: cc.Config{Seed: 24}, RecordCycles: true})
	l.OnTick(0)
	now := silentCycle(t, l, 0)
	now = silentCycle(t, l, now)
	now = silentCycle(t, l, now)
	if !l.Outage() {
		t.Fatal("outage should have latched")
	}
	l.baseGrad, l.baseLoss = 5, 0.05 // stale pre-outage baselines
	decayed := l.BaseRate()
	now += 20 * time.Millisecond
	l.OnAck(ack(now))
	if l.Outage() {
		t.Fatal("ACK must clear the outage")
	}
	if l.Stage() != StageExplore || l.cycleStart != now {
		t.Fatalf("recovery must restart the cycle at the ACK: stage %v start %v now %v",
			l.Stage(), l.cycleStart, now)
	}
	if l.baseGrad != 0 || l.baseLoss != 0 {
		t.Fatal("stale baselines must be discarded on recovery")
	}
	if l.BaseRate() != decayed {
		t.Fatalf("recovery must resume from the decayed base rate: %v -> %v", decayed, l.BaseRate())
	}
	if l.noAckCycles != 0 {
		t.Fatal("watchdog counter must reset on recovery")
	}
}

// TestPoisonedRLRateFallsBack checks the inference guard at the
// explore/eval boundary: a non-positive (or non-finite) RL rate is
// replaced by the classic candidate instead of entering the
// candidate comparison.
func TestPoisonedRLRateFallsBack(t *testing.T) {
	// A negative MinRate disarms the clamp so the degenerate rate
	// actually reaches the controller, as a NaN escaping a custom
	// reward or action map would in production.
	poisoned := rlcc.New("libra-rl", rlcc.LibraRLConfig(cc.Config{Seed: 25, MinRate: -1e12}))
	l := New(Config{CC: cc.Config{Seed: 25}, RL: poisoned})
	l.OnTick(0)
	poisoned.SetRate(-5)
	now := time.Duration(0)
	for i := 0; i < 200 && l.Stage() == StageExplore; i++ {
		now += 10 * time.Millisecond
		l.OnTick(now)
	}
	if l.Stage() == StageExplore {
		t.Fatal("exploration never ended")
	}
	if l.xRl != l.xCl {
		t.Fatalf("poisoned x_rl must fall back to x_cl: xRl=%v xCl=%v", l.xRl, l.xCl)
	}
	if l.xRl <= 0 {
		t.Fatalf("x_rl must stay positive, got %v", l.xRl)
	}
}
