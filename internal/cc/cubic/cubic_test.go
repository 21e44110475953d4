package cubic

import (
	"math"
	"testing"
	"time"

	"libra/internal/cc"
	"libra/internal/cctest"
	"libra/internal/trace"
)

// TestRegistered checks the name CUBIC reports: its key in the
// controller table.
func TestRegistered(t *testing.T) {
	if got := New(cc.Config{}).Name(); got != "cubic" {
		t.Fatalf("Name() = %q, want cubic", got)
	}
}

func TestSlowStartDoubles(t *testing.T) {
	c := New(cc.Config{})
	w0 := c.Window()
	// Ack one full window.
	for i := 0; i < 10; i++ {
		c.OnAck(&cc.Ack{Now: time.Duration(i) * time.Millisecond, RTT: 40 * time.Millisecond, SRTT: 40 * time.Millisecond, MinRTT: 40 * time.Millisecond, Acked: 1500})
	}
	if got := c.Window(); math.Abs(got-2*w0) > 1 {
		t.Fatalf("slow start window %v after one window acked, want %v", got, 2*w0)
	}
}

func TestLossMultiplicativeDecrease(t *testing.T) {
	c := New(cc.Config{})
	c.SetWindow(100 * 1500)
	c.ssthresh = 0 // force congestion avoidance
	w0 := c.Window()
	c.OnLoss(&cc.Loss{Now: time.Second, Lost: 1500})
	if got := c.Window(); math.Abs(got-w0*Beta) > 1 {
		t.Fatalf("post-loss window %v, want %v", got, w0*Beta)
	}
	// A second loss inside the guard window must not decrease again.
	w1 := c.Window()
	c.OnLoss(&cc.Loss{Now: time.Second + time.Millisecond, Lost: 1500})
	if c.Window() != w1 {
		t.Fatal("second loss in same window reduced cwnd again")
	}
}

func TestTimeoutCollapsesWindow(t *testing.T) {
	c := New(cc.Config{})
	c.SetWindow(100 * 1500)
	c.OnLoss(&cc.Loss{Now: time.Second, Lost: 1500, Timeout: true})
	if c.Window() != 2*1500 {
		t.Fatalf("timeout window %v, want 2 MSS", c.Window())
	}
}

func TestCubicGrowthConcaveThenConvex(t *testing.T) {
	// After a loss, growth should be fast, flatten near wMax, then
	// accelerate past it — the signature cubic shape.
	c := New(cc.Config{})
	c.SetWindow(200 * 1500)
	c.ssthresh = 0
	c.OnLoss(&cc.Loss{Now: 0, Lost: 1500})

	now := time.Duration(0)
	rtt := 40 * time.Millisecond
	var windows []float64
	// K = cbrt(wMax*(1-Beta)/C) ≈ 5.3 s for wMax=200 MSS; run well past it.
	for i := 0; i < 12000; i++ {
		now += time.Millisecond
		c.OnAck(&cc.Ack{Now: now, RTT: rtt, SRTT: rtt, MinRTT: rtt, Acked: 1500})
		if i%1200 == 0 {
			windows = append(windows, c.Window())
		}
	}
	// Growth increments early vs near plateau.
	early := windows[1] - windows[0]
	mid := windows[4] - windows[3]
	late := windows[len(windows)-1] - windows[len(windows)-2]
	if !(early > mid) {
		t.Fatalf("expected concave start: early=%v mid=%v", early, mid)
	}
	if !(late > mid) {
		t.Fatalf("expected convex tail: late=%v mid=%v", late, mid)
	}
	if c.Window() <= 200*1500*Beta {
		t.Fatal("window never recovered past the post-loss level")
	}
}

func TestSetWindowFloorsAtTwoMSS(t *testing.T) {
	c := New(cc.Config{})
	c.SetWindow(10)
	if c.Window() != 2*1500 {
		t.Fatalf("window %v, want 2 MSS floor", c.Window())
	}
}

func TestFillsLinkAndCausesBufferbloat(t *testing.T) {
	res := cctest.RunSingle(cctest.Scenario{
		Capacity: trace.Constant(trace.Mbps(24)),
		MinRTT:   30 * time.Millisecond,
		Buffer:   150000,
		Duration: 30 * time.Second,
	}, New(cc.Config{}))
	if res.Utilization < 0.85 {
		t.Fatalf("CUBIC utilization %.3f, want >0.85", res.Utilization)
	}
	// 150 KB at 24 Mbps is 50 ms of queue; CUBIC should mostly fill it.
	if res.AvgRTT < 45*time.Millisecond {
		t.Fatalf("CUBIC avg RTT %v shows no bufferbloat", res.AvgRTT)
	}
}

func TestStochasticLossCollapsesThroughput(t *testing.T) {
	// The classic failure mode: 2% random loss should hurt CUBIC badly.
	res := cctest.RunSingle(cctest.Scenario{
		Capacity: trace.Constant(trace.Mbps(48)),
		MinRTT:   60 * time.Millisecond,
		Buffer:   360000,
		Loss:     0.02,
		Duration: 30 * time.Second,
	}, New(cc.Config{}))
	if res.Utilization > 0.7 {
		t.Fatalf("CUBIC with 2%% loss achieved %.3f utilization; expected collapse", res.Utilization)
	}
}

func TestIntraFairnessTwoCubicFlows(t *testing.T) {
	a, b := cctest.RunPair(cctest.Scenario{
		Capacity: trace.Constant(trace.Mbps(48)),
		MinRTT:   40 * time.Millisecond,
		Buffer:   240000,
		Duration: 60 * time.Second,
	}, New(cc.Config{}), New(cc.Config{}), 0)
	ratio := a.Throughput / (a.Throughput + b.Throughput)
	if ratio < 0.35 || ratio > 0.65 {
		t.Fatalf("two CUBIC flows split %.2f/%.2f", ratio, 1-ratio)
	}
}
