package dctcp

import (
	"testing"
	"time"

	"libra/internal/cc"
	"libra/internal/netem"
	"libra/internal/trace"
)

// TestRegistered checks the name DCTCP reports: its key in the
// controller table.
func TestRegistered(t *testing.T) {
	if got := New(cc.Config{}).Name(); got != "dctcp" {
		t.Fatalf("Name() = %q, want dctcp", got)
	}
}

func TestAlphaTracksMarkFraction(t *testing.T) {
	d := New(cc.Config{})
	d.ssthresh = 0 // CA
	delivered := int64(0)
	// 50% of bytes marked, long enough for the EWMA to converge.
	for i := 0; i < 4000; i++ {
		delivered += 1500
		d.OnAck(&cc.Ack{Acked: 1500, Delivered: delivered, ECE: i%2 == 0})
	}
	if d.Alpha() < 0.3 || d.Alpha() > 0.7 {
		t.Fatalf("alpha %v for 50%% marking", d.Alpha())
	}
}

func TestGentleCutProportionalToAlpha(t *testing.T) {
	d := New(cc.Config{})
	d.ssthresh = 0
	d.cwnd = 100 * 1500
	d.alpha = 0.1
	d.windowEnd = 0
	// A window with marks at low alpha cuts by ~alpha/2 = 5%.
	d.OnAck(&cc.Ack{Acked: 1500, Delivered: 1, ECE: true})
	if d.Window() < 90*1500 {
		t.Fatalf("low-alpha cut too deep: %v", d.Window())
	}
}

func TestFullThroughputLowQueueWithECN(t *testing.T) {
	// Datacenter-style: 100 Mbps, 1 ms RTT, marking at ~32 KB.
	n := netem.New(netem.Config{
		Capacity:     trace.Constant(trace.Mbps(100)),
		MinRTT:       time.Millisecond,
		BufferBytes:  500_000,
		ECNThreshold: 32_000,
		Seed:         1,
	})
	f := n.AddFlow(New(cc.Config{}), 0, 0)
	n.Run(5 * time.Second)
	if u := n.Utilization(5 * time.Second); u < 0.85 {
		t.Fatalf("DCTCP utilization %.3f", u)
	}
	// Queue should hover near the threshold: 32KB at 100 Mbps = 2.6 ms.
	if f.Stats.AvgRTT() > 6*time.Millisecond {
		t.Fatalf("DCTCP avg RTT %v: queue not held at threshold", f.Stats.AvgRTT())
	}
	if n.Link().DropStats().Marked == 0 {
		t.Fatal("no packets were CE-marked")
	}
}

func TestECNDisabledMeansNoMarks(t *testing.T) {
	n := netem.New(netem.Config{
		Capacity:    trace.Constant(trace.Mbps(20)),
		MinRTT:      10 * time.Millisecond,
		BufferBytes: 50_000,
		Seed:        1,
	})
	n.AddFlow(New(cc.Config{}), 0, 0)
	n.Run(3 * time.Second)
	if n.Link().DropStats().Marked != 0 {
		t.Fatal("marks without ECN threshold")
	}
}

func TestTimeoutCollapse(t *testing.T) {
	d := New(cc.Config{})
	d.cwnd = 100 * 1500
	d.OnLoss(&cc.Loss{Timeout: true, Lost: 1500})
	if d.Window() != 2*1500 {
		t.Fatalf("timeout window %v", d.Window())
	}
}

func TestTwoDCTCPFlowsShareFairly(t *testing.T) {
	n := netem.New(netem.Config{
		Capacity:     trace.Constant(trace.Mbps(100)),
		MinRTT:       time.Millisecond,
		BufferBytes:  500_000,
		ECNThreshold: 32_000,
		Seed:         3,
	})
	f1 := n.AddFlow(New(cc.Config{}), 0, 0)
	f2 := n.AddFlow(New(cc.Config{}), 0, 0)
	n.Run(5 * time.Second)
	a, b := f1.Stats.AvgThroughput(), f2.Stats.AvgThroughput()
	share := a / (a + b)
	if share < 0.3 || share > 0.7 {
		t.Fatalf("DCTCP flows split %.2f/%.2f", share, 1-share)
	}
}
