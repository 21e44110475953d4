package telemetry

import (
	"os"
	"testing"
	"time"
)

// BenchmarkTSCollectorEmit measures the collector's steady-state hot
// path: one enqueue plus one decision event per iteration against warm
// (already-registered) series, with virtual time advancing so bucket
// rollover and the occasional 2x fold are part of the measurement.
func BenchmarkTSCollectorEmit(b *testing.B) {
	c := NewTSCollector(0, 0)
	enq := Event{T: 1, Type: TypeEnqueue, Flow: 0, Seq: 42, Bytes: 1500, Queue: 30000}
	dec := Event{T: 1, Type: TypeDecision, Flow: 0, RTT: 40e6, Winner: "x_prev", XPrev: 6e6, UPrev: 1.2}
	c.Emit(&enq)
	c.Emit(&dec)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := int64(i) * int64(time.Millisecond)
		enq.T = t
		c.Emit(&enq)
		dec.T = t
		c.Emit(&dec)
	}
}

// TestTimeSeriesBudget pins the collector's feed path: zero
// allocations per event in steady state (always enforced — series and
// flow slots may only allocate on first sight), and ≤ 50 ns/event when
// TIMESERIES_BENCH_GUARD arms the wall-clock bound (make bench-core /
// scripts/check.sh run this package in isolation).
func TestTimeSeriesBudget(t *testing.T) {
	c := NewTSCollector(0, 0)
	enq := Event{T: 1, Type: TypeEnqueue, Flow: 0, Seq: 42, Bytes: 1500, Queue: 30000}
	dec := Event{T: 1, Type: TypeDecision, Flow: 0, RTT: 40e6, Winner: "x_prev", XPrev: 6e6, UPrev: 1.2}
	c.Emit(&enq) // register the link/flow series up front
	c.Emit(&dec)
	var vt int64
	allocs := testing.AllocsPerRun(1000, func() {
		vt += int64(time.Millisecond)
		enq.T = vt
		c.Emit(&enq)
		dec.T = vt
		c.Emit(&dec)
	})
	if allocs > 0 {
		t.Fatalf("TSCollector.Emit allocates %.2f allocs/op in steady state, want 0", allocs)
	}

	if os.Getenv("TIMESERIES_BENCH_GUARD") == "" {
		t.Log("TIMESERIES_BENCH_GUARD unset; skipping ns/event budget (use make bench-core)")
		return
	}
	if raceEnabled {
		t.Log("race detector active; skipping ns/event budget")
		return
	}
	res := testing.Benchmark(BenchmarkTSCollectorEmit)
	ns := float64(res.T.Nanoseconds()) / float64(res.N) / 2 // two events per iteration
	t.Logf("time-series collector feed path: %.2f ns/event", ns)
	if ns > 50 {
		t.Fatalf("time-series collector costs %.2f ns/event, budget is <= 50 ns/event", ns)
	}
}
