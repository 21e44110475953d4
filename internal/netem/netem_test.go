package netem

import (
	"math"
	"testing"
	"time"

	"libra/internal/cc"
	"libra/internal/trace"
)

func mbps(v float64) float64 { return trace.Mbps(v) }

// aimd is a minimal window-based AIMD controller used to exercise the
// emulator before the real algorithms exist.
type aimd struct {
	cwnd float64
	mss  float64
}

func newAIMD(mss int) *aimd { return &aimd{cwnd: 10 * float64(mss), mss: float64(mss)} }

func (a *aimd) Name() string { return "test-aimd" }
func (a *aimd) OnAck(ack *cc.Ack) {
	a.cwnd += a.mss * float64(ack.Acked) / a.cwnd
}
func (a *aimd) OnLoss(*cc.Loss) {
	a.cwnd = math.Max(2*a.mss, a.cwnd/2)
}
func (a *aimd) Rate() float64   { return 0 }
func (a *aimd) Window() float64 { return a.cwnd }

func TestCBRFlowDeliversAtConfiguredRate(t *testing.T) {
	n := New(Config{
		Capacity:    trace.Constant(mbps(10)),
		MinRTT:      40 * time.Millisecond,
		BufferBytes: 150000,
		Seed:        1,
	})
	f := n.AddFlow(cc.FixedRate{R: mbps(4)}, 0, 0)
	n.Run(10 * time.Second)
	got := f.Stats.AvgThroughput()
	if math.Abs(got-mbps(4)) > mbps(0.2) {
		t.Fatalf("CBR throughput %.2f Mbps, want ~4", trace.ToMbps(got))
	}
	if f.Stats.LostBytes != 0 {
		t.Fatalf("unexpected losses under capacity: %d", f.Stats.LostBytes)
	}
	if rtt := f.Stats.MinRTT; rtt < 40*time.Millisecond || rtt > 45*time.Millisecond {
		t.Fatalf("min RTT %v, want ~40ms + serialization", rtt)
	}
}

func TestOverdrivenCBRSaturatesLinkAndDrops(t *testing.T) {
	n := New(Config{
		Capacity:    trace.Constant(mbps(5)),
		MinRTT:      40 * time.Millisecond,
		BufferBytes: 30000,
		Seed:        1,
	})
	f := n.AddFlow(cc.FixedRate{R: mbps(10)}, 0, 0)
	n.Run(10 * time.Second)
	if u := n.Utilization(10 * time.Second); u < 0.95 || u > 1.05 {
		t.Fatalf("utilization %.3f, want ~1.0", u)
	}
	if f.Stats.LostBytes == 0 {
		t.Fatal("overdriven link should drop")
	}
	// Queue should sit full: RTT inflated by ~bufferBytes/capacity = 48ms.
	if f.Stats.MaxRTT < 60*time.Millisecond {
		t.Fatalf("max RTT %v, want bufferbloat >60ms", f.Stats.MaxRTT)
	}
}

func TestAIMDFillsLink(t *testing.T) {
	n := New(Config{
		Capacity:    trace.Constant(mbps(20)),
		MinRTT:      40 * time.Millisecond,
		BufferBytes: 100000,
		Seed:        1,
	})
	f := n.AddFlow(newAIMD(1500), 0, 0)
	n.Run(20 * time.Second)
	if u := n.Utilization(20 * time.Second); u < 0.8 {
		t.Fatalf("AIMD utilization %.3f, want >0.8", u)
	}
	if f.Stats.LostBytes == 0 {
		t.Fatal("AIMD should periodically overflow the buffer")
	}
}

func TestStochasticLossRateApplied(t *testing.T) {
	n := New(Config{
		Capacity:    trace.Constant(mbps(10)),
		MinRTT:      40 * time.Millisecond,
		BufferBytes: 150000,
		LossRate:    0.05,
		Seed:        7,
	})
	f := n.AddFlow(cc.FixedRate{R: mbps(5)}, 0, 0)
	n.Run(30 * time.Second)
	lr := f.Stats.LossRate()
	if lr < 0.03 || lr > 0.07 {
		t.Fatalf("observed loss rate %.4f, want ~0.05", lr)
	}
}

func TestTwoCBRFlowsShareFIFO(t *testing.T) {
	n := New(Config{
		Capacity:    trace.Constant(mbps(10)),
		MinRTT:      40 * time.Millisecond,
		BufferBytes: 60000,
		Seed:        3,
	})
	f1 := n.AddFlow(cc.FixedRate{R: mbps(4)}, 0, 0)
	f2 := n.AddFlow(cc.FixedRate{R: mbps(4)}, 0, 0)
	n.Run(10 * time.Second)
	t1, t2 := f1.Stats.AvgThroughput(), f2.Stats.AvgThroughput()
	if math.Abs(t1-t2) > mbps(0.3) {
		t.Fatalf("equal-rate flows diverged: %.2f vs %.2f Mbps", trace.ToMbps(t1), trace.ToMbps(t2))
	}
	if tot := t1 + t2; math.Abs(tot-mbps(8)) > mbps(0.4) {
		t.Fatalf("aggregate %.2f Mbps, want ~8", trace.ToMbps(tot))
	}
}

func TestFlowStartStop(t *testing.T) {
	n := New(Config{
		Capacity:    trace.Constant(mbps(10)),
		MinRTT:      40 * time.Millisecond,
		BufferBytes: 150000,
		Seed:        1,
	})
	f := n.AddFlow(cc.FixedRate{R: mbps(2)}, 2*time.Second, 6*time.Second)
	n.Run(10 * time.Second)
	if f.Stats.Active < 3900*time.Millisecond || f.Stats.Active > 4100*time.Millisecond {
		t.Fatalf("active %v, want ~4s", f.Stats.Active)
	}
	wantBytes := mbps(2) * 4
	if math.Abs(float64(f.Stats.AckedBytes)-wantBytes) > wantBytes*0.1 {
		t.Fatalf("acked %d bytes, want ~%.0f", f.Stats.AckedBytes, wantBytes)
	}
}

func TestStepTraceChangesDeliveryRate(t *testing.T) {
	n := New(Config{
		Capacity: &trace.Step{
			Period: 5 * time.Second,
			Levels: []float64{mbps(2), mbps(10)},
		},
		MinRTT:       40 * time.Millisecond,
		BufferBytes:  60000,
		Seed:         1,
		SeriesBucket: time.Second,
	})
	f := n.AddFlow(cc.FixedRate{R: mbps(20)}, 0, 0)
	n.Run(10 * time.Second)
	low := f.Stats.Throughput.Rate(2)  // t=2..3s, 2 Mbps phase
	high := f.Stats.Throughput.Rate(7) // t=7..8s, 10 Mbps phase
	if low > mbps(3) || high < mbps(8) {
		t.Fatalf("step trace not followed: low=%.1f high=%.1f Mbps", trace.ToMbps(low), trace.ToMbps(high))
	}
}

func TestSeriesBucketing(t *testing.T) {
	s := NewSeries(time.Second)
	s.Add(500*time.Millisecond, 100)
	s.Add(700*time.Millisecond, 50)
	s.Add(1500*time.Millisecond, 30)
	if s.Sum(0) != 150 || s.Sum(1) != 30 {
		t.Fatalf("sums %v %v", s.Sum(0), s.Sum(1))
	}
	if s.Rate(0) != 150 {
		t.Fatalf("rate %v", s.Rate(0))
	}
	if s.Mean(0) != 75 {
		t.Fatalf("mean %v", s.Mean(0))
	}
	if s.Sum(5) != 0 || s.Mean(5) != 0 {
		t.Fatal("out-of-range buckets should be zero")
	}
	if got := s.Rates(3); len(got) != 3 || got[2] != 0 {
		t.Fatalf("rates %v", got)
	}
}

func TestRTOFiresWhenLinkBlackholes(t *testing.T) {
	// A trace that drops to (near) zero strands packets in the queue long
	// enough to trip the RTO.
	n := New(Config{
		Capacity: &trace.Step{
			Period: 2 * time.Second,
			Levels: []float64{mbps(5), 0.0000001},
		},
		MinRTT:      40 * time.Millisecond,
		BufferBytes: 150000,
		LossRate:    0,
		Seed:        1,
	})
	ctl := newAIMD(1500)
	f := n.AddFlow(ctl, 0, 0)
	n.Run(6 * time.Second)
	if f.Stats.LostBytes == 0 {
		t.Fatal("expected RTO-declared losses during blackhole phase")
	}
}

func TestComputeAccounting(t *testing.T) {
	n := New(Config{
		Capacity:    trace.Constant(mbps(10)),
		MinRTT:      40 * time.Millisecond,
		BufferBytes: 150000,
		Seed:        1,
	})
	f := n.AddFlow(newAIMD(1500), 0, 0)
	n.Run(5 * time.Second)
	if f.Stats.ComputeNs < 0 {
		t.Fatal("negative compute time")
	}
	if f.Stats.RTTCount == 0 {
		t.Fatal("no RTT samples recorded")
	}
}

func TestUtilizationNeverExceedsOneByMuch(t *testing.T) {
	n := New(Config{
		Capacity:    trace.Constant(mbps(8)),
		MinRTT:      30 * time.Millisecond,
		BufferBytes: 150000,
		Seed:        2,
	})
	n.AddFlow(cc.FixedRate{R: mbps(30)}, 0, 0)
	n.Run(10 * time.Second)
	if u := n.Utilization(10 * time.Second); u > 1.05 {
		t.Fatalf("utilization %.3f > 1", u)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (int64, int64) {
		n := New(Config{
			Capacity:    trace.NewLTE(trace.LTEDriving, 10*time.Second, 4),
			MinRTT:      30 * time.Millisecond,
			BufferBytes: 150000,
			LossRate:    0.01,
			Seed:        11,
		})
		f := n.AddFlow(newAIMD(1500), 0, 0)
		n.Run(10 * time.Second)
		return f.Stats.AckedBytes, f.Stats.LostBytes
	}
	a1, l1 := run()
	a2, l2 := run()
	if a1 != a2 || l1 != l2 {
		t.Fatalf("non-deterministic: (%d,%d) vs (%d,%d)", a1, l1, a2, l2)
	}
}

func TestAppLimitedFlowSendsAtAppRate(t *testing.T) {
	n := New(Config{
		Capacity:    trace.Constant(mbps(50)),
		MinRTT:      40 * time.Millisecond,
		BufferBytes: 150000,
		Seed:        6,
	})
	f := n.AddFlow(newAIMD(1500), 0, 0)
	f.SetAppRate(mbps(3)) // streaming-style 3 Mbps source
	n.Run(10 * time.Second)
	got := trace.ToMbps(f.Stats.AvgThroughput())
	if got < 2.5 || got > 3.5 {
		t.Fatalf("app-limited throughput %.2f Mbps, want ~3", got)
	}
	// The link has headroom, so the app-limited flow sees (almost) no
	// queueing.
	if f.Stats.AvgRTT() > 45*time.Millisecond {
		t.Fatalf("app-limited flow queued: avg RTT %v", f.Stats.AvgRTT())
	}
}

func TestAppLimitedZeroMeansBulk(t *testing.T) {
	n := New(Config{
		Capacity:    trace.Constant(mbps(10)),
		MinRTT:      40 * time.Millisecond,
		BufferBytes: 100000,
		Seed:        6,
	})
	f := n.AddFlow(newAIMD(1500), 0, 0)
	f.SetAppRate(0)
	n.Run(10 * time.Second)
	if n.Utilization(10*time.Second) < 0.8 {
		t.Fatal("bulk flow should fill the link")
	}
}

func TestECNMarkingAboveThreshold(t *testing.T) {
	n := New(Config{
		Capacity:     trace.Constant(mbps(10)),
		MinRTT:       20 * time.Millisecond,
		BufferBytes:  100000,
		ECNThreshold: 20000,
		Seed:         9,
	})
	n.AddFlow(cc.FixedRate{R: mbps(20)}, 0, 0) // overdrive to build queue
	n.Run(5 * time.Second)
	if n.Link().DropStats().Marked == 0 {
		t.Fatal("overdriven ECN link should mark packets")
	}
}
