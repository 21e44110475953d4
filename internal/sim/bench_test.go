package sim

import (
	"math"
	"os"
	"testing"
	"time"
)

// chain is the benchmark workload: a self-rescheduling callback, the
// shape of the steady-state netem callbacks (link service, controller
// ticks, the queue sampler).
type chain struct {
	e    *Engine
	n    int
	stop int
}

func chainCb(arg any) {
	c := arg.(*chain)
	c.n++
	if c.n < c.stop {
		c.e.AfterCall(time.Microsecond, chainCb, c)
	}
}

// background gives the heap a realistic depth: 64 callbacks parked an
// hour out.
func background(e *Engine) {
	for i := 0; i < 64; i++ {
		e.AtCall(time.Hour+time.Duration(i), nop, nil)
	}
}

// BenchmarkSteadyCallback measures the zero-alloc hot path: one AfterCall
// schedule + one dispatch per op, on a warm engine with a small queue.
func BenchmarkSteadyCallback(b *testing.B) {
	e := New()
	c := &chain{e: e, stop: b.N}
	background(e)
	e.AfterCall(time.Microsecond, chainCb, c)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(time.Hour - time.Minute)
	if c.n < b.N {
		b.Fatalf("dispatched %d of %d events", c.n, b.N)
	}
}

// lineChain is the delay-path workload: a line with several items in
// flight, each delivery pushing its item straight back and re-setting a
// deadline the way an ACK restarts a flow's RTO.
type lineChain struct {
	e    *Engine
	line *Line
	rto  *Deadline
	n    int
	stop int
}

func lineChainCb(arg any) {
	c := arg.(*lineChain)
	c.n++
	if c.n >= c.stop {
		c.rto.Stop()
		return
	}
	c.rto.Set(c.e.Now() + 50*time.Microsecond)
	c.line.Push(c)
}

// BenchmarkSteadyLine measures the delay-line and lazy-deadline hot path:
// one line delivery, one push and one deadline re-set per op. The
// deadline's stale entry comes due and re-arms every 50 µs of simulated
// time.
func BenchmarkSteadyLine(b *testing.B) {
	e := New()
	c := &lineChain{e: e, stop: math.MaxInt}
	c.line = e.NewLine(8*time.Microsecond, lineChainCb)
	c.rto = e.NewDeadline(func(any) { b.Fatal("deadline fired while being re-set") }, nil)
	background(e)
	for i := 0; i < 8; i++ {
		e.AtCall(time.Duration(i)*time.Microsecond, func(any) { c.line.Push(c) }, nil)
	}
	e.Run(16 * time.Microsecond) // warm-up: the line's buffer reaches its working size
	c.n, c.stop = 0, b.N
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(time.Hour - time.Minute)
	if c.n < b.N {
		b.Fatalf("delivered %d of %d items", c.n, b.N)
	}
}

// pacingChain is the pacing workload: a deadline set only while disarmed,
// which sets itself again from inside its callback, the way a flow's
// send loop re-arms its pacing timer.
type pacingChain struct {
	e    *Engine
	d    *Deadline
	n    int
	stop int
}

func pacingCb(arg any) {
	p := arg.(*pacingChain)
	p.n++
	if p.n < p.stop && !p.d.Armed() {
		p.d.Set(p.e.Now() + time.Microsecond)
	}
}

// BenchmarkSteadyPacing measures the pacing hot path: one Set on a
// disarmed deadline and one firing per op.
func BenchmarkSteadyPacing(b *testing.B) {
	e := New()
	p := &pacingChain{e: e, stop: b.N}
	p.d = e.NewDeadline(pacingCb, p)
	background(e)
	p.d.Set(time.Microsecond)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(time.Hour - time.Minute)
	if p.n < b.N {
		b.Fatalf("fired %d of %d times", p.n, b.N)
	}
}

// BenchmarkHeapChurn stresses sift depth: schedule b.N events with
// spread timestamps up front, then drain.
func BenchmarkHeapChurn(b *testing.B) {
	e := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.AtCall(time.Duration((i*2654435761)%1000000)*time.Microsecond, nop, nil)
	}
	e.Run(time.Hour)
}

// steadyBudgetNs bounds the per-event cost (schedule + dispatch) of each
// hot path. The measured figure on the recording machine
// is ~40-80 ns; 250 ns absorbs slower CI hardware while still catching
// an accidental reintroduction of boxing or container/heap dispatch.
const steadyBudgetNs = 250

// TestEngineBudget is the regression guard for the allocation-free hot
// paths: steady-state callback scheduling/dispatch, line push/delivery
// with a deadline re-set, and the pacing deadline's set/fire cycle must
// stay at exactly 0 allocs/event, and under steadyBudgetNs ns/event. The nanosecond assertion only arms when
// CORE_BENCH_GUARD is set (make bench-core / scripts/check.sh), because
// it needs this package run in isolation; the allocation assertion is
// unconditional — allocations do not depend on machine load.
func TestEngineBudget(t *testing.T) {
	guard := os.Getenv("CORE_BENCH_GUARD") != ""
	for _, c := range []struct {
		name  string
		bench func(*testing.B)
	}{
		{"steady callback path", BenchmarkSteadyCallback},
		{"line + deadline path", BenchmarkSteadyLine},
		{"pacing deadline path", BenchmarkSteadyPacing},
	} {
		r := testing.Benchmark(c.bench)
		if r.N == 0 {
			t.Fatalf("%s: benchmark did not run", c.name)
		}
		t.Logf("%s: %d ns/event, %d allocs/event (N=%d)", c.name, r.NsPerOp(), r.AllocsPerOp(), r.N)
		if a := r.AllocsPerOp(); a != 0 {
			t.Errorf("%s allocates: %d allocs/event, want 0", c.name, a)
		}
		if ns := r.NsPerOp(); guard && ns > steadyBudgetNs {
			t.Errorf("%s costs %d ns/event, budget %d", c.name, ns, steadyBudgetNs)
		}
	}
	if !guard {
		t.Log("set CORE_BENCH_GUARD=1 (make bench-core) to arm the ns/event assertion")
	}
}
