package westwood

import (
	"testing"
	"time"

	"libra/internal/cc"
	"libra/internal/cctest"
	"libra/internal/trace"
)

// TestRegistered checks the name Westwood reports: its key in the
// controller table.
func TestRegistered(t *testing.T) {
	if got := New(cc.Config{}).Name(); got != "westwood" {
		t.Fatalf("Name() = %q, want westwood", got)
	}
}

func TestBandwidthEstimateTracksAckRate(t *testing.T) {
	w := New(cc.Config{})
	now := time.Duration(0)
	// 1500 bytes every 10 ms = 150 kB/s.
	for i := 0; i < 200; i++ {
		now += 10 * time.Millisecond
		w.OnAck(&cc.Ack{Now: now, RTT: 40 * time.Millisecond, SRTT: 40 * time.Millisecond,
			MinRTT: 40 * time.Millisecond, Acked: 1500})
	}
	if bwe := w.BWE(); bwe < 100e3 || bwe > 200e3 {
		t.Fatalf("BWE %v, want ~150kB/s", bwe)
	}
}

func TestFasterRecoveryUsesBDP(t *testing.T) {
	w := New(cc.Config{})
	now := time.Duration(0)
	for i := 0; i < 200; i++ {
		now += 10 * time.Millisecond
		w.OnAck(&cc.Ack{Now: now, RTT: 40 * time.Millisecond, SRTT: 40 * time.Millisecond,
			MinRTT: 40 * time.Millisecond, Acked: 1500})
	}
	w.cwnd = 100 * 1500 // inflated window
	w.OnLoss(&cc.Loss{Now: now, Lost: 1500})
	// BDP = 150kB/s * 40ms = 6kB, not cwnd/2 = 75kB.
	if w.Window() > 20*1500 {
		t.Fatalf("post-loss window %v, want ~BDP", w.Window())
	}
}

func TestResilienceVsRenoUnderStochasticLoss(t *testing.T) {
	// Westwood's claim to fame: random (non-congestion) loss does not
	// collapse the window to half because BDP estimation restores it.
	scn := cctest.Scenario{
		Capacity: trace.Constant(trace.Mbps(24)),
		MinRTT:   40 * time.Millisecond,
		Buffer:   120000,
		Loss:     0.01,
		Duration: 30 * time.Second,
	}
	ww := cctest.RunSingle(scn, New(cc.Config{}))
	if ww.Utilization < 0.5 {
		t.Fatalf("Westwood utilization %.3f under 1%% loss", ww.Utilization)
	}
}

func TestSetWindowFloor(t *testing.T) {
	w := New(cc.Config{})
	w.SetWindow(1)
	if w.Window() != 2*1500 {
		t.Fatalf("window %v", w.Window())
	}
}
