// Package integration holds cross-module invariant tests: properties
// that must hold across the emulator, the controllers, and the Libra
// framework together.
package integration

import (
	"math"
	"testing"
	"time"

	"libra/internal/cc"
	"libra/internal/core"
	"libra/internal/exp"
	"libra/internal/netem"
	"libra/internal/trace"
)

// newCCA builds the named controller from the harness's controller
// table, with untrained policies.
func newCCA(t testing.TB, name string, seed int64) cc.Controller {
	t.Helper()
	mk, err := exp.MakerFor(name, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return mk(seed)
}

// makers returns one fresh controller of each family for sweep tests.
func makers() map[string]exp.Maker {
	names := []string{"cubic", "bbr", "reno", "vegas", "copa", "sprout",
		"vivace", "proteus", "remy", "indigo", "aurora", "orca",
		"westwood", "illinois", "dctcp", "c-libra", "b-libra", "cl-libra"}
	out := map[string]exp.Maker{}
	for _, n := range names {
		mk, err := exp.MakerFor(n, nil, nil)
		if err != nil {
			panic(err)
		}
		out[n] = mk
	}
	return out
}

// TestByteConservation: for every controller, sent = acked + lost +
// still-in-flight at the end of the run, and the link never delivers
// more than was sent.
func TestByteConservation(t *testing.T) {
	for name, mk := range makers() {
		t.Run(name, func(t *testing.T) {
			n := netem.New(netem.Config{
				Capacity:    trace.Constant(trace.Mbps(20)),
				MinRTT:      40 * time.Millisecond,
				BufferBytes: 60_000,
				LossRate:    0.01,
				Seed:        7,
			})
			f := n.AddFlow(mk(3), 0, 0)
			n.Run(8 * time.Second)
			accounted := f.Stats.AckedBytes + f.Stats.LostBytes + int64(f.InFlight())
			// ACKs still in flight at cut-off may lag: allow a small
			// slack of unresolved bytes (those become InFlight).
			slack := f.Stats.SentBytes - accounted
			if slack < 0 || slack > 200*1500 {
				t.Fatalf("conservation: sent=%d acked=%d lost=%d inflight=%d (slack %d)",
					f.Stats.SentBytes, f.Stats.AckedBytes, f.Stats.LostBytes, f.InFlight(), slack)
			}
			if n.Link().DeliveredBytes() > f.Stats.SentBytes {
				t.Fatal("link delivered more than was sent")
			}
		})
	}
}

// TestNoCCAStarvesItself: every controller must keep its flow alive on
// an easy link.
func TestNoCCAStarvesItself(t *testing.T) {
	for name, mk := range makers() {
		t.Run(name, func(t *testing.T) {
			n := netem.New(netem.Config{
				Capacity:    trace.Constant(trace.Mbps(12)),
				MinRTT:      40 * time.Millisecond,
				BufferBytes: 90_000,
				Seed:        1,
			})
			f := n.AddFlow(mk(1), 0, 0)
			n.Run(10 * time.Second)
			// Untrained RL policies ramp slowly (their trained versions
			// are exercised by the experiment harness); they must still
			// make visible progress.
			floor := 1.0
			if name == "aurora" || name == "cl-libra" {
				floor = 0.3
			}
			if trace.ToMbps(f.Stats.AvgThroughput()) < floor {
				t.Fatalf("%s achieved only %.2f Mbps on a clean 12 Mbps link",
					name, trace.ToMbps(f.Stats.AvgThroughput()))
			}
		})
	}
}

// TestRTTNeverBelowPropagation: measured RTTs must respect physics.
func TestRTTNeverBelowPropagation(t *testing.T) {
	for name, mk := range makers() {
		n := netem.New(netem.Config{
			Capacity:    trace.Constant(trace.Mbps(24)),
			MinRTT:      60 * time.Millisecond,
			BufferBytes: 150_000,
			Seed:        2,
		})
		f := n.AddFlow(mk(2), 0, 0)
		n.Run(5 * time.Second)
		if f.Stats.MinRTT < 60*time.Millisecond {
			t.Fatalf("%s observed RTT %v below propagation delay", name, f.Stats.MinRTT)
		}
	}
}

// TestDeterminismAcrossControllers: identical seeds give identical
// results for every controller, including the learning-based ones.
func TestDeterminismAcrossControllers(t *testing.T) {
	for name, mk := range makers() {
		run := func() int64 {
			n := netem.New(netem.Config{
				Capacity:    trace.NewLTE(trace.LTEWalking, 6*time.Second, 9),
				MinRTT:      30 * time.Millisecond,
				BufferBytes: 150_000,
				LossRate:    0.005,
				Seed:        5,
			})
			f := n.AddFlow(mk(11), 0, 0)
			n.Run(6 * time.Second)
			return f.Stats.AckedBytes
		}
		if a, b := run(), run(); a != b {
			t.Fatalf("%s non-deterministic: %d vs %d", name, a, b)
		}
	}
}

// TestLibraUtilizationAcrossBufferExtremes: the headline robustness
// property — C-Libra keeps working from tiny to huge buffers.
func TestLibraUtilizationAcrossBufferExtremes(t *testing.T) {
	for _, buf := range []int{10_000, 2_000_000} {
		n := netem.New(netem.Config{
			Capacity:    trace.Constant(trace.Mbps(30)),
			MinRTT:      50 * time.Millisecond,
			BufferBytes: buf,
			Seed:        4,
		})
		l := core.New(core.Config{CC: cc.Config{Seed: 6}})
		n.AddFlow(l, 0, 0)
		n.Run(25 * time.Second)
		if u := n.Utilization(25 * time.Second); u < 0.5 {
			t.Fatalf("buffer %d: utilization %.3f", buf, u)
		}
	}
}

// TestManyFlowsShareBottleneck: eight mixed flows must all make
// progress and jointly not exceed capacity.
func TestManyFlowsShareBottleneck(t *testing.T) {
	n := netem.New(netem.Config{
		Capacity:    trace.Constant(trace.Mbps(40)),
		MinRTT:      40 * time.Millisecond,
		BufferBytes: 300_000,
		Seed:        8,
	})
	names := []string{"cubic", "bbr", "c-libra", "copa", "reno", "westwood", "illinois", "vegas"}
	flows := make([]*netem.Flow, len(names))
	for i, nm := range names {
		flows[i] = n.AddFlow(newCCA(t, nm, int64(20+i)), 0, 0)
	}
	n.Run(30 * time.Second)
	var total float64
	for i, f := range flows {
		thr := trace.ToMbps(f.Stats.AvgThroughput())
		total += thr
		if thr < 0.1 {
			t.Errorf("%s starved (%.2f Mbps)", names[i], thr)
		}
	}
	if total > 42 {
		t.Fatalf("aggregate %.1f Mbps exceeds 40 Mbps capacity", total)
	}
	if math.IsNaN(total) {
		t.Fatal("NaN throughput")
	}
}
