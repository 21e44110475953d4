package integration

import (
	"bytes"
	"testing"
	"time"

	"libra/internal/netem"
	"libra/internal/telemetry"
	"libra/internal/trace"
)

// traceRun drives one controller over an emulated path with a JSONL
// recorder attached to both the network and the controller, then
// decodes the event stream back.
func traceRun(t *testing.T, name string, cap trace.Trace, buffer int, d time.Duration) []telemetry.Event {
	t.Helper()
	var buf bytes.Buffer
	rec := telemetry.NewRecorder(&buf)
	n := netem.New(netem.Config{
		Capacity:    cap,
		MinRTT:      30 * time.Millisecond,
		BufferBytes: buffer,
		Seed:        11,
		Tracer:      rec,
	})
	ctrl := newCCA(t, name, 5)
	if tb, ok := ctrl.(telemetry.Traceable); ok {
		tb.SetTracer(rec, 0)
	}
	n.AddFlow(ctrl, 0, 0)
	n.Run(d)
	if err := rec.Close(); err != nil {
		t.Fatalf("recorder close: %v", err)
	}
	evs, err := telemetry.ReadAll(&buf)
	if err != nil {
		t.Fatalf("decode trace: %v", err)
	}
	if len(evs) == 0 {
		t.Fatal("trace produced no events")
	}
	return evs
}

// TestCycleEventProperties: the per-cycle event stream from a Libra run
// is monotonic in time, and balanced — every cycle opens with an
// explore stage entry and closes with exactly one decision or no-ACK
// fallback, so the counts differ by at most the one unfinished cycle.
func TestCycleEventProperties(t *testing.T) {
	evs := traceRun(t, "c-libra", trace.Constant(trace.Mbps(24)), 150_000, 20*time.Second)

	var explores, closes, stages int
	last := int64(-1)
	for i := range evs {
		e := &evs[i]
		if e.T < last {
			t.Fatalf("event %d went back in time: %d after %d (%+v)", i, e.T, last, *e)
		}
		last = e.T
		switch e.Type {
		case telemetry.TypeStage:
			stages++
			if e.Stage == "explore" {
				explores++
			}
		case telemetry.TypeDecision, telemetry.TypeNoAck:
			closes++
			if e.Type == telemetry.TypeDecision && e.Winner == "" {
				t.Errorf("decision event without winner: %+v", *e)
			}
		}
	}
	if explores == 0 {
		t.Fatal("no explore stage events")
	}
	if stages < 3*explores/2 {
		t.Errorf("expected eval/exploit stage entries between explores: %d stages for %d explores", stages, explores)
	}
	// The run ends mid-cycle at most once: explores == closes or closes+1.
	if explores != closes && explores != closes+1 {
		t.Errorf("unbalanced cycles: %d explore entries vs %d decisions+fallbacks", explores, closes)
	}
}

// TestNetemEventProperties: a deliberately tiny buffer forces tail
// drops; the stream must carry enqueue events, tail-drop events with
// sensible queue depths, and periodic link-level queue samples.
func TestNetemEventProperties(t *testing.T) {
	evs := traceRun(t, "cubic", trace.Constant(trace.Mbps(12)), 20_000, 10*time.Second)

	var enq, tailDrops, samples int
	var lastSample int64 = -1
	for i := range evs {
		e := &evs[i]
		switch e.Type {
		case telemetry.TypeEnqueue:
			enq++
			if e.Bytes <= 0 || e.Queue < e.Bytes {
				t.Fatalf("enqueue with bad sizes: %+v", *e)
			}
		case telemetry.TypeDrop:
			if e.Reason == telemetry.ReasonTail {
				tailDrops++
			}
			if e.Reason == "" {
				t.Errorf("drop without reason: %+v", *e)
			}
		case telemetry.TypeQueue:
			samples++
			if e.Flow != -1 {
				t.Errorf("queue sample should carry flow -1: %+v", *e)
			}
			if lastSample >= 0 && e.T-lastSample != int64(100*time.Millisecond) {
				t.Errorf("queue samples not 100ms apart: %d then %d", lastSample, e.T)
			}
			lastSample = e.T
		}
	}
	if enq == 0 {
		t.Error("no enqueue events")
	}
	if tailDrops == 0 {
		t.Error("20 KB buffer at 12 Mbps should tail-drop, but no tail drops recorded")
	}
	if want := int(10*time.Second/(100*time.Millisecond)) - 1; samples < want {
		t.Errorf("want >= %d queue samples over 10s, got %d", want, samples)
	}
}

// TestEndToEndLTETrace mirrors the CLI contract: a 30s LTE run with
// c-libra must yield a decodable JSONL stream containing stage
// transitions, candidate decisions, and queue/drop events.
func TestEndToEndLTETrace(t *testing.T) {
	if testing.Short() {
		t.Skip("30s emulation")
	}
	d := 30 * time.Second
	evs := traceRun(t, "c-libra", trace.NewLTE(trace.LTEDriving, d, 3), 40_000, d)

	kinds := map[telemetry.Type]int{}
	for i := range evs {
		kinds[evs[i].Type]++
	}
	for _, want := range []telemetry.Type{
		telemetry.TypeStage, telemetry.TypeDecision,
		telemetry.TypeEnqueue, telemetry.TypeQueue, telemetry.TypeDrop,
	} {
		if kinds[want] == 0 {
			t.Errorf("30s LTE trace missing %q events (have %v)", want, kinds)
		}
	}
}
