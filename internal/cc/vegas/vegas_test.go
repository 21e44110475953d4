package vegas

import (
	"testing"
	"time"

	"libra/internal/cc"
	"libra/internal/cctest"
	"libra/internal/trace"
)

// TestRegistered checks the name Vegas reports: its key in the
// controller table.
func TestRegistered(t *testing.T) {
	if got := New(cc.Config{}).Name(); got != "vegas" {
		t.Fatalf("Name() = %q, want vegas", got)
	}
}

func TestHoldsLowQueueOnWiredLink(t *testing.T) {
	res := cctest.RunSingle(cctest.Scenario{
		Capacity: trace.Constant(trace.Mbps(24)),
		MinRTT:   40 * time.Millisecond,
		Buffer:   300000, // deep buffer Vegas must not fill
		Duration: 30 * time.Second,
	}, New(cc.Config{}))
	if res.Utilization < 0.7 {
		t.Fatalf("Vegas utilization %.3f", res.Utilization)
	}
	// Alpha..Beta packets of queue is ~2ms at 24 Mbps; allow slack for
	// slow-start overshoot at the start of the run.
	if res.AvgRTT > 60*time.Millisecond {
		t.Fatalf("Vegas avg RTT %v: queue not controlled", res.AvgRTT)
	}
}

func TestBacksOffWhenDiffExceedsBeta(t *testing.T) {
	v := New(cc.Config{})
	v.slowStart = false
	v.cwnd = 100 * 1500
	base := 40 * time.Millisecond
	// RTT doubled => large diff => decrease once per RTT.
	v.OnAck(&cc.Ack{Now: time.Second, RTT: 2 * base, SRTT: 2 * base, MinRTT: base, Acked: 1500})
	if v.Window() >= 100*1500 {
		t.Fatal("Vegas did not decrease under heavy queueing")
	}
}

func TestIncreasesWhenQueueEmpty(t *testing.T) {
	v := New(cc.Config{})
	v.slowStart = false
	v.cwnd = 10 * 1500
	base := 40 * time.Millisecond
	v.OnAck(&cc.Ack{Now: time.Second, RTT: base, SRTT: base, MinRTT: base, Acked: 1500})
	if v.Window() <= 10*1500 {
		t.Fatal("Vegas did not probe with empty queue")
	}
}

func TestAdjustsOncePerRTT(t *testing.T) {
	v := New(cc.Config{})
	v.slowStart = false
	v.cwnd = 10 * 1500
	base := 40 * time.Millisecond
	v.OnAck(&cc.Ack{Now: time.Second, RTT: base, SRTT: base, MinRTT: base, Acked: 1500})
	w := v.Window()
	v.OnAck(&cc.Ack{Now: time.Second + time.Millisecond, RTT: base, SRTT: base, MinRTT: base, Acked: 1500})
	if v.Window() != w {
		t.Fatal("Vegas adjusted twice within one RTT")
	}
}

func TestLossFallback(t *testing.T) {
	v := New(cc.Config{})
	v.cwnd = 100 * 1500
	v.OnLoss(&cc.Loss{Now: time.Second, Lost: 1500})
	if v.Window() != 75*1500 {
		t.Fatalf("loss window %v, want 3/4", v.Window())
	}
	v.OnLoss(&cc.Loss{Now: time.Second, Timeout: true, Lost: 1500})
	if v.Window() != 2*1500 {
		t.Fatalf("timeout window %v", v.Window())
	}
}
