package analyze

import (
	"os"
	"testing"
	"time"

	"libra/internal/telemetry"
)

// benchEvents is one steady-state batch: the event mix a two-flow
// simulation emits per control cycle (stages, decision, enqueue,
// queue sample). Timestamps stay inside one fairness window so the
// warmed analyzer touches only existing state.
func benchEvents() []telemetry.Event {
	ms := int64(time.Millisecond)
	var evs []telemetry.Event
	for fl := 0; fl < 2; fl++ {
		rate := 1.25e6 * float64(fl+1)
		evs = append(evs,
			telemetry.Event{T: 10 * ms, Type: telemetry.TypeStage, Flow: fl, Stage: "explore", Rate: rate},
			telemetry.Event{T: 20 * ms, Type: telemetry.TypeStage, Flow: fl, Stage: "eval-1", Rate: rate},
			telemetry.Event{T: 30 * ms, Type: telemetry.TypeStage, Flow: fl, Stage: "eval-2", Rate: rate},
			telemetry.Event{T: 40 * ms, Type: telemetry.TypeStage, Flow: fl, Stage: "exploit", Rate: rate},
			telemetry.Event{
				T: 50 * ms, Type: telemetry.TypeDecision, Flow: fl, Winner: "x_cl",
				XPrev: rate, XCl: rate * 0.9, XRl: rate * 1.1,
				UPrev: 5.1, UCl: 5.3, URl: 4.9,
				RTT: 20 * ms, Thr: rate * 8 / 1e6, Grad: 0.001, Loss: 0.01,
			},
			telemetry.Event{T: 55 * ms, Type: telemetry.TypeEnqueue, Flow: fl, Bytes: 1500},
		)
	}
	evs = append(evs, telemetry.Event{T: 60 * ms, Type: telemetry.TypeQueue, Flow: -1, Queue: 30000, Rate: 2.5e6})
	return evs
}

// recordedEvents is one steady-state batch in the mix a traced lab
// tournament records (libra-lab tournament -cca cubic,bbr,c-libra,aurora
// -budget 16 -dur 4s -seed 3 -trace-out: 92.2% enqueue, 5.0% drop,
// under 1% of each other type): per 200 events, 184 enqueues at varying
// queue depths, 10 tail drops, and one each of stage, queue sample,
// fault, action, decision and cycle span. Timestamps stay inside one
// fairness window.
func recordedEvents() []telemetry.Event {
	ms := int64(time.Millisecond)
	evs := make([]telemetry.Event, 0, 200)
	for i := int64(0); i < 184; i++ {
		evs = append(evs, telemetry.Event{T: i * ms / 4, Type: telemetry.TypeEnqueue, Flow: 0, Seq: i, Bytes: 1500, Queue: 1500 * (1 + i%100)})
	}
	for i := int64(0); i < 10; i++ {
		evs = append(evs, telemetry.Event{T: 50*ms + i*ms/4, Type: telemetry.TypeDrop, Flow: 0, Reason: "tail", Seq: 184 + i, Bytes: 1500, Queue: 150000})
	}
	return append(evs,
		telemetry.Event{T: 60 * ms, Type: telemetry.TypeStage, Flow: 0, Stage: "explore", Rate: 1.25e6},
		telemetry.Event{T: 61 * ms, Type: telemetry.TypeQueue, Flow: -1, Queue: 30000, Rate: 2.5e6},
		telemetry.Event{T: 62 * ms, Type: telemetry.TypeFault, Flow: -1, Reason: telemetry.FaultDup, Seq: 7},
		telemetry.Event{T: 63 * ms, Type: telemetry.TypeAction, Flow: 0, Rate: 1.6e6, Action: 2, Reward: 0.02, FMin: -1, FMean: 5, FMax: 12},
		telemetry.Event{
			T: 64 * ms, Type: telemetry.TypeDecision, Flow: 0, Winner: "x_cl",
			XPrev: 1.25e6, XCl: 1.1e6, XRl: 1.4e6, UPrev: 5.1, UCl: 5.3, URl: 4.9,
			RTT: 20 * ms, Thr: 10, Grad: 0.001, Loss: 0.01,
		},
		telemetry.Event{T: 65 * ms, Type: telemetry.TypeSpan, Flow: 0, Reason: telemetry.SpanBegin, Name: "cycle:0"},
	)
}

// feedBench measures the per-event cost of tap on a repeating batch,
// after one warming pass over it.
func feedBench(b *testing.B, tap telemetry.Tracer, evs []telemetry.Event) {
	for i := range evs {
		tap.Emit(&evs[i]) // warm flow/window/sketch state
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tap.Emit(&evs[i%len(evs)])
	}
}

// BenchmarkFeed measures the per-event cost of the streaming analysis
// on the steady-state event mix. TestFeedBudget enforces the numbers
// in CI.
func BenchmarkFeed(b *testing.B) { feedBench(b, New(Config{}), benchEvents()) }

// BenchmarkFeedRecorded is BenchmarkFeed on the recorded lab mix,
// which is nearly all enqueues.
func BenchmarkFeedRecorded(b *testing.B) { feedBench(b, New(Config{}), recordedEvents()) }

// BenchmarkDetector measures the detector fold alone on the recorded
// lab mix: the cost the flight-dump tap and a lab evaluation pay.
func BenchmarkDetector(b *testing.B) { feedBench(b, NewDetector(nil), recordedEvents()) }

// TestFeedBudget runs the feed benchmarks and asserts the
// bounded-memory contract: zero steady-state allocations per event
// (always enforced — neither the analyzer nor the detector may retain
// or allocate per event), and a per-event time budget when
// ANALYZE_BENCH_GUARD is set (make bench-guard / scripts/check.sh run
// this package in isolation, because under a parallel `go test ./...`
// sweep the wall clock measures CPU contention, not the feed path).
func TestFeedBudget(t *testing.T) {
	for _, bm := range []struct {
		name string
		fn   func(*testing.B)
	}{
		{"feed", BenchmarkFeed},
		{"feed on the recorded mix", BenchmarkFeedRecorded},
		{"detector", BenchmarkDetector},
	} {
		res := testing.Benchmark(bm.fn)
		if res.AllocsPerOp() != 0 {
			t.Fatalf("steady-state %s allocates: %d allocs/op", bm.name, res.AllocsPerOp())
		}
		if os.Getenv("ANALYZE_BENCH_GUARD") == "" {
			t.Logf("ANALYZE_BENCH_GUARD unset; skipping %s ns/op budget (use make bench-guard)", bm.name)
			continue
		}
		if raceEnabled {
			t.Logf("race detector active; skipping %s ns/op budget", bm.name)
			continue
		}
		ns := float64(res.T.Nanoseconds()) / float64(res.N)
		t.Logf("steady-state %s: %.1f ns/op", bm.name, ns)
		if ns >= 500 {
			t.Fatalf("%s costs %.1f ns/op, budget is < 500 ns/op", bm.name, ns)
		}
	}
}

// TestDetectorSteadyStateAllocs pins the detector fold to zero
// allocations once every flow has been seen, on a stream that fires
// all three detectors and closes runs at scenario span ends.
func TestDetectorSteadyStateAllocs(t *testing.T) {
	fired := 0
	d := NewDetector(func(int, int64, string) { fired++ })
	stream := randomDetectorStream(7, 2000)
	feed := func() {
		for i := range stream {
			d.Emit(&stream[i])
		}
	}
	feed() // warm: every flow's state exists
	if n := testing.AllocsPerRun(20, feed); n != 0 {
		t.Fatalf("detector allocates %.1f times per %d-event pass", n, len(stream))
	}
	if fired == 0 {
		t.Fatal("stream fired no anomaly; no detector path was measured")
	}
}
