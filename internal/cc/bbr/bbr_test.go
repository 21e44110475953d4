package bbr

import (
	"testing"
	"time"

	"libra/internal/cc"
	"libra/internal/cctest"
	"libra/internal/trace"
)

// TestRegistered checks the name BBR reports: its key in the
// controller table.
func TestRegistered(t *testing.T) {
	if got := New(cc.Config{}).Name(); got != "bbr" {
		t.Fatalf("Name() = %q, want bbr", got)
	}
}

func TestStartupExitsAfterPlateau(t *testing.T) {
	b := New(cc.Config{})
	now := time.Duration(0)
	delivered := int64(0)
	// Feed a constant delivery rate: bandwidth stops growing, so BBR
	// should leave STARTUP within a few rounds.
	for i := 0; i < 200 && b.State() == "STARTUP"; i++ {
		now += 10 * time.Millisecond
		delivered += 15000
		b.OnAck(&cc.Ack{
			Now: now, RTT: 50 * time.Millisecond, SRTT: 50 * time.Millisecond,
			MinRTT: 50 * time.Millisecond, Acked: 1500, InFlight: 30000,
			Delivered: delivered, DeliveryRate: 1.5e6,
		})
	}
	if b.State() == "STARTUP" {
		t.Fatal("BBR never exited STARTUP on a plateaued link")
	}
}

func TestUtilizationAndLowQueueOnWiredLink(t *testing.T) {
	res := cctest.RunSingle(cctest.Scenario{
		Capacity: trace.Constant(trace.Mbps(48)),
		MinRTT:   40 * time.Millisecond,
		Buffer:   480000, // deep buffer: BBR should not fill it
		Duration: 30 * time.Second,
	}, New(cc.Config{}))
	if res.Utilization < 0.8 {
		t.Fatalf("BBR utilization %.3f, want >0.8", res.Utilization)
	}
	// Deep buffer would add up to 80ms of queue if filled; BBR should
	// keep the standing queue well below that.
	if res.AvgRTT > 90*time.Millisecond {
		t.Fatalf("BBR avg RTT %v: standing queue too large", res.AvgRTT)
	}
}

func TestResilientToStochasticLoss(t *testing.T) {
	res := cctest.RunSingle(cctest.Scenario{
		Capacity: trace.Constant(trace.Mbps(24)),
		MinRTT:   40 * time.Millisecond,
		Buffer:   240000,
		Loss:     0.05,
		Duration: 30 * time.Second,
	}, New(cc.Config{}))
	if res.Utilization < 0.6 {
		t.Fatalf("BBR with 5%% loss achieved only %.3f utilization", res.Utilization)
	}
}

func TestBWEstimateTracksLink(t *testing.T) {
	res := cctest.RunSingle(cctest.Scenario{
		Capacity: trace.Constant(trace.Mbps(24)),
		MinRTT:   40 * time.Millisecond,
		Duration: 20 * time.Second,
	}, New(cc.Config{}))
	b := res.Flow.Controller().(*BBR)
	bw := trace.ToMbps(b.BW())
	if bw < 20 || bw > 31 {
		t.Fatalf("BW estimate %.1f Mbps, want ~24", bw)
	}
	if rt := b.RTprop(); rt < 40*time.Millisecond || rt > 50*time.Millisecond {
		t.Fatalf("RTprop %v, want ~40ms", rt)
	}
}

func TestSeedRateRestartsProbeCycle(t *testing.T) {
	b := New(cc.Config{})
	b.SeedRate(trace.Mbps(10), time.Second)
	if b.State() != "PROBE_BW" {
		t.Fatalf("state %s after seed, want PROBE_BW", b.State())
	}
	if b.BW() != trace.Mbps(10) {
		t.Fatalf("BW %v after seed", trace.ToMbps(b.BW()))
	}
	// First phase must be the 1.25 probe.
	if r := b.Rate(); r < trace.Mbps(12) || r > trace.Mbps(13) {
		t.Fatalf("seeded rate %.2f Mbps, want 12.5 (1.25 gain)", trace.ToMbps(r))
	}
}

func TestSeedRateIgnoresNonPositive(t *testing.T) {
	b := New(cc.Config{})
	b.SeedRate(0, time.Second)
	if b.State() != "STARTUP" {
		t.Fatal("zero seed should be ignored")
	}
}

func TestTracksCapacityIncrease(t *testing.T) {
	res := cctest.RunSingle(cctest.Scenario{
		Capacity: &trace.Step{Period: 10 * time.Second, Levels: []float64{trace.Mbps(10), trace.Mbps(40)}},
		MinRTT:   40 * time.Millisecond,
		Buffer:   300000,
		Duration: 20 * time.Second,
	}, New(cc.Config{}))
	// Mean of the two phases is 25 Mbps; BBR should use most of both.
	if res.Utilization < 0.7 {
		t.Fatalf("BBR step utilization %.3f", res.Utilization)
	}
}
