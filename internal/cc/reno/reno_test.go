package reno

import (
	"math"
	"testing"
	"time"

	"libra/internal/cc"
	"libra/internal/cctest"
	"libra/internal/trace"
)

// TestRegistered checks the name Reno reports: its key in the
// controller table.
func TestRegistered(t *testing.T) {
	if got := New(cc.Config{}).Name(); got != "reno" {
		t.Fatalf("Name() = %q, want reno", got)
	}
}

func TestSlowStartExponential(t *testing.T) {
	r := New(cc.Config{})
	w0 := r.Window()
	for i := 0; i < 10; i++ {
		r.OnAck(&cc.Ack{Acked: 1500})
	}
	if got := r.Window(); got != w0+10*1500 {
		t.Fatalf("slow start grew to %v, want %v", got, w0+10*1500)
	}
}

func TestCongestionAvoidanceLinear(t *testing.T) {
	r := New(cc.Config{})
	r.ssthresh = r.cwnd // enter CA at current window
	w0 := r.Window()
	// One full window of acks should add ~1 MSS.
	acks := int(w0) / 1500
	for i := 0; i < acks; i++ {
		r.OnAck(&cc.Ack{Acked: 1500})
	}
	if got := r.Window(); math.Abs(got-(w0+1500)) > 200 {
		t.Fatalf("CA grew by %v per RTT, want ~1 MSS", got-w0)
	}
}

func TestFastRecoveryHalves(t *testing.T) {
	r := New(cc.Config{})
	r.cwnd = 100 * 1500
	r.OnLoss(&cc.Loss{Now: time.Second, Lost: 1500})
	if got := r.Window(); got != 50*1500 {
		t.Fatalf("post-loss window %v, want half", got)
	}
	// Guarded against double reaction.
	r.OnLoss(&cc.Loss{Now: time.Second + 50*time.Millisecond, Lost: 1500})
	if got := r.Window(); got != 50*1500 {
		t.Fatalf("second loss in window halved again: %v", got)
	}
}

func TestTimeoutCollapse(t *testing.T) {
	r := New(cc.Config{})
	r.cwnd = 100 * 1500
	r.OnLoss(&cc.Loss{Now: time.Second, Timeout: true, Lost: 1500})
	if got := r.Window(); got != 2*1500 {
		t.Fatalf("timeout window %v", got)
	}
}

func TestSawtoothFillsMostOfLink(t *testing.T) {
	res := cctest.RunSingle(cctest.Scenario{
		Capacity: trace.Constant(trace.Mbps(12)),
		MinRTT:   40 * time.Millisecond,
		Buffer:   60000,
		Duration: 30 * time.Second,
	}, New(cc.Config{}))
	if res.Utilization < 0.75 {
		t.Fatalf("Reno utilization %.3f", res.Utilization)
	}
	if res.LossRate == 0 {
		t.Fatal("Reno should experience periodic losses")
	}
}
