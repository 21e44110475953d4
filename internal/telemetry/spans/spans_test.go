package spans

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"libra/internal/telemetry"
)

// decode parses the builder's output back into generic trace events.
func decode(t *testing.T, b *Builder) []map[string]any {
	t.Helper()
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("WriteTo output is not valid JSON: %v\n%s", err, buf.Bytes())
	}
	return doc.TraceEvents
}

// checkBalanced walks the events asserting per-(pid,tid) LIFO B/E
// nesting with monotonic timestamps, and that nothing stays open.
func checkBalanced(t *testing.T, evs []map[string]any) {
	t.Helper()
	type key struct{ pid, tid float64 }
	stacks := map[key][]map[string]any{}
	for i, e := range evs {
		k := key{e["pid"].(float64), e["tid"].(float64)}
		switch e["ph"] {
		case "B":
			stacks[k] = append(stacks[k], e)
		case "E":
			st := stacks[k]
			if len(st) == 0 {
				t.Fatalf("event %d: E %q with empty stack on %v", i, e["name"], k)
			}
			top := st[len(st)-1]
			if top["name"] != e["name"] {
				t.Fatalf("event %d: E %q does not match open span %q (non-LIFO nesting)",
					i, e["name"], top["name"])
			}
			if e["ts"].(float64) < top["ts"].(float64) {
				t.Fatalf("event %d: span %q ends at %v before it begins at %v",
					i, e["name"], e["ts"], top["ts"])
			}
			stacks[k] = st[:len(st)-1]
		}
	}
	for k, st := range stacks {
		if len(st) != 0 {
			t.Fatalf("%v: %d span(s) left open (first: %q)", k, len(st), st[0]["name"])
		}
	}
}

// feed pushes a minimal but structurally complete run into the builder:
// scenario > flow > cycle > stages, with a decision and an anomaly.
func feed(b *Builder, base int64) {
	evs := []telemetry.Event{
		{T: base, Type: telemetry.TypeSpan, Flow: -1, Reason: telemetry.SpanBegin, Name: "scenario:step"},
		{T: base, Type: telemetry.TypeSpan, Flow: 0, Reason: telemetry.SpanBegin, Name: "flow:c-libra"},
		{T: base + 10, Type: telemetry.TypeSpan, Flow: 0, Reason: telemetry.SpanBegin, Name: "cycle", XPrev: 1e6},
		{T: base + 10, Type: telemetry.TypeStage, Flow: 0, Stage: "explore", Rate: 1e6},
		{T: base + 20, Type: telemetry.TypeStage, Flow: 0, Stage: "eval-1", Rate: 1.2e6},
		{T: base + 30, Type: telemetry.TypeDecision, Flow: 0, Winner: "x_cl", UPrev: 1, UCl: 2},
		{T: base + 30, Type: telemetry.TypeSpan, Flow: 0, Reason: telemetry.SpanEnd, Name: "cycle"},
		{T: base + 35, Type: telemetry.TypeQueue, Flow: -1, Queue: 3000, Rate: 12e6},
		{T: base + 40, Type: telemetry.TypeAnomaly, Flow: 0, Reason: telemetry.AnomalyNoAckStreak},
		{T: base + 50, Type: telemetry.TypeSpan, Flow: 0, Reason: telemetry.SpanEnd, Name: "flow:c-libra"},
		{T: base + 50, Type: telemetry.TypeSpan, Flow: -1, Reason: telemetry.SpanEnd, Name: "scenario:step"},
	}
	for i := range evs {
		b.Add(&evs[i])
	}
}

func TestBuilderBalancedNesting(t *testing.T) {
	b := NewBuilder()
	feed(b, 0)
	b.Finish()
	evs := decode(t, b)
	checkBalanced(t, evs)
	if b.Runs() != 1 {
		t.Fatalf("Runs() = %d, want 1", b.Runs())
	}
	// The open stage (eval-1) must have been sealed by the cycle end,
	// and the cycle by its own E: count B/E pairs.
	var bCnt, eCnt int
	for _, e := range evs {
		switch e["ph"] {
		case "B":
			bCnt++
		case "E":
			eCnt++
		}
	}
	if bCnt == 0 || bCnt != eCnt {
		t.Fatalf("B/E counts %d/%d, want equal and nonzero", bCnt, eCnt)
	}
}

func TestBuilderRunSplitOnTimeRegression(t *testing.T) {
	b := NewBuilder()
	feed(b, 0)
	feed(b, 0) // clock restarts: a sweep job boundary
	b.Finish()
	evs := decode(t, b)
	checkBalanced(t, evs)
	if b.Runs() != 2 {
		t.Fatalf("Runs() = %d, want 2 after a timestamp regression", b.Runs())
	}
	pids := map[float64]bool{}
	for _, e := range evs {
		pids[e["pid"].(float64)] = true
	}
	if len(pids) != 2 {
		t.Fatalf("distinct pids = %d, want 2", len(pids))
	}
}

// TestBuilderAbandonedSpansSealedAtRunBoundary leaves a cycle and a
// stage open when the run ends; the boundary must close them so the
// next run starts clean.
func TestBuilderAbandonedSpansSealedAtRunBoundary(t *testing.T) {
	b := NewBuilder()
	evs := []telemetry.Event{
		{T: 5, Type: telemetry.TypeSpan, Flow: 0, Reason: telemetry.SpanBegin, Name: "cycle"},
		{T: 6, Type: telemetry.TypeStage, Flow: 0, Stage: "explore"},
		{T: 2, Type: telemetry.TypeStage, Flow: 1, Stage: "exploit"}, // T regressed: new run
	}
	for i := range evs {
		b.Add(&evs[i])
	}
	b.Finish()
	checkBalanced(t, decode(t, b))
	if b.Runs() != 2 {
		t.Fatalf("Runs() = %d, want 2", b.Runs())
	}
}

// TestBuilderMidStreamDumpTolerated feeds a stream that starts with
// dangling ends and stages — the shape of a flight-recorder dump cut
// mid-cycle — and expects valid, balanced output.
func TestBuilderMidStreamDumpTolerated(t *testing.T) {
	b := NewBuilder()
	evs := []telemetry.Event{
		{T: 100, Type: telemetry.TypeStage, Flow: 0, Stage: "eval-2"},
		{T: 110, Type: telemetry.TypeSpan, Flow: 0, Reason: telemetry.SpanEnd, Name: "cycle"},
		{T: 115, Type: telemetry.TypeSpan, Flow: 0, Reason: telemetry.SpanEnd, Name: "flow:c-libra"},
		{T: 120, Type: telemetry.TypeSpan, Flow: 0, Reason: telemetry.SpanBegin, Name: "cycle"},
		{T: 130, Type: telemetry.TypeAnomaly, Flow: 0, Reason: telemetry.AnomalyCollapse},
	}
	for i := range evs {
		b.Add(&evs[i])
	}
	b.Finish()
	checkBalanced(t, decode(t, b))
}

func TestExperimentMarkersAreGlobalInstants(t *testing.T) {
	b := NewBuilder()
	begin := telemetry.Event{T: 0, Type: telemetry.TypeSpan, Flow: -1, Reason: telemetry.SpanBegin, Name: "experiment:fig7"}
	b.Add(&begin)
	feed(b, 0)
	feed(b, 0)
	end := telemetry.Event{T: 0, Type: telemetry.TypeSpan, Flow: -1, Reason: telemetry.SpanEnd, Name: "experiment:fig7"}
	b.Add(&end)
	b.Finish()
	evs := decode(t, b)
	checkBalanced(t, evs)

	var markers, labeled int
	for _, e := range evs {
		name, _ := e["name"].(string)
		if strings.HasPrefix(name, "experiment:fig7") {
			markers++
			if e["ph"] != "i" || e["s"] != "g" {
				t.Fatalf("experiment marker %q is ph=%v s=%v, want a global instant", name, e["ph"], e["s"])
			}
		}
		if e["ph"] == "M" && name == "process_name" {
			if pn, _ := e["args"].(map[string]any)["name"].(string); strings.Contains(pn, "fig7") {
				labeled++
			}
		}
	}
	if markers != 2 {
		t.Fatalf("experiment markers = %d, want begin+end", markers)
	}
	if labeled == 0 {
		t.Fatal("no process name carries the active experiment label")
	}
	// The experiment never becomes a B/E span: it brackets several runs
	// and a span cannot cross pids.
	for _, e := range evs {
		if name, _ := e["name"].(string); strings.HasPrefix(name, "experiment:") && (e["ph"] == "B" || e["ph"] == "E") {
			t.Fatalf("experiment emitted as %v span", e["ph"])
		}
	}
}

func TestConvertRoundTrip(t *testing.T) {
	var jsonl bytes.Buffer
	rec := telemetry.NewRecorder(&jsonl)
	for _, e := range []telemetry.Event{
		{T: 0, Type: telemetry.TypeSpan, Flow: -1, Reason: telemetry.SpanBegin, Name: "scenario:wired"},
		{T: 10, Type: telemetry.TypeStage, Flow: 0, Stage: "explore", Rate: 2e6},
		{T: 20, Type: telemetry.TypeDrop, Flow: -1, Reason: "tail", Bytes: 1500},
		{T: 30, Type: telemetry.TypeSpan, Flow: -1, Reason: telemetry.SpanEnd, Name: "scenario:wired"},
	} {
		rec.Emit(&e)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := Convert(&jsonl, &out); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("Convert output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("Convert produced no trace events")
	}
	checkBalanced(t, doc.TraceEvents)
}
