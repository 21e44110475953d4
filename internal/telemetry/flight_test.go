package telemetry

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// readDump decodes one dump file into events.
func readDump(t *testing.T, path string) []Event {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	evs, err := ReadAll(f)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return evs
}

func dumpNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// TestFlightWraparound fills a 4-deep ring past capacity and checks the
// dump holds exactly the newest 4 events, oldest first, with the
// eviction counter accounting for the aged-out remainder.
func TestFlightWraparound(t *testing.T) {
	dir := t.TempDir()
	fl := NewFlightRecorder(FlightConfig{PerFlow: 4, Dir: dir})
	for i := 0; i < 10; i++ {
		fl.Emit(&Event{T: int64(i), Type: TypeStage, Flow: 0, Seq: int64(i)})
	}
	if got := fl.Evictions(); got != 6 {
		t.Fatalf("Evictions() = %d, want 6", got)
	}
	fl.TriggerDump(0, 10, "")
	evs := readDump(t, filepath.Join(dir, "flight-0-10.jsonl"))
	if len(evs) != 4 {
		t.Fatalf("dump holds %d events, want 4", len(evs))
	}
	for i, e := range evs {
		if want := int64(6 + i); e.Seq != want {
			t.Errorf("dump[%d].Seq = %d, want %d (oldest-first window)", i, e.Seq, want)
		}
	}
}

// TestFlightDumpMergesLinkRing interleaves flow-0 and link (flow -1)
// events and checks a flow dump replays both rings in emission order.
func TestFlightDumpMergesLinkRing(t *testing.T) {
	dir := t.TempDir()
	fl := NewFlightRecorder(FlightConfig{Dir: dir})
	for i := 0; i < 6; i++ {
		flow := 0
		if i%2 == 1 {
			flow = -1
		}
		fl.Emit(&Event{T: int64(i), Type: TypeQueue, Flow: flow, Seq: int64(i)})
	}
	fl.TriggerDump(0, 6, "")
	evs := readDump(t, filepath.Join(dir, "flight-0-6.jsonl"))
	if len(evs) != 6 {
		t.Fatalf("merged dump holds %d events, want 6", len(evs))
	}
	for i, e := range evs {
		if e.Seq != int64(i) {
			t.Fatalf("dump[%d].Seq = %d: link ring not interleaved in emission order", i, e.Seq)
		}
	}
}

// TestFlightAnomalySelfTrigger checks an in-stream anomaly event cuts a
// dump whose tail is that event itself, with no duplicate appended.
func TestFlightAnomalySelfTrigger(t *testing.T) {
	dir := t.TempDir()
	fl := NewFlightRecorder(FlightConfig{Dir: dir})
	fl.Emit(&Event{T: 1, Type: TypeStage, Flow: 2})
	fl.Emit(&Event{T: 5, Type: TypeAnomaly, Flow: 2, Reason: AnomalyCollapse})
	if got := fl.Dumps(); got != 1 {
		t.Fatalf("Dumps() = %d, want 1", got)
	}
	evs := readDump(t, filepath.Join(dir, "flight-2-5.jsonl"))
	if len(evs) != 2 {
		t.Fatalf("dump holds %d events, want 2 (no duplicated trigger)", len(evs))
	}
	if last := evs[1]; last.Type != TypeAnomaly || last.Reason != AnomalyCollapse {
		t.Fatalf("dump tail = %s/%s, want the triggering anomaly", last.Type, last.Reason)
	}
}

// TestFlightExternalTriggerAppendsReason checks an out-of-stream
// trigger (the analyzer callback path) appends a self-describing
// anomaly event.
func TestFlightExternalTriggerAppendsReason(t *testing.T) {
	dir := t.TempDir()
	fl := NewFlightRecorder(FlightConfig{Dir: dir})
	fl.Emit(&Event{T: 7, Type: TypeDecision, Flow: 0, Winner: "x_prev"})
	fl.TriggerDump(0, 9, AnomalyRegression)
	evs := readDump(t, filepath.Join(dir, "flight-0-9.jsonl"))
	last := evs[len(evs)-1]
	if last.Type != TypeAnomaly || last.Reason != AnomalyRegression || last.T != 9 {
		t.Fatalf("dump tail = %+v, want appended %s anomaly at t=9", last, AnomalyRegression)
	}
}

// TestFlightFilenameDedupe checks repeated triggers at the same flow
// and sim-time get deterministic -<k> suffixes instead of overwriting.
func TestFlightFilenameDedupe(t *testing.T) {
	dir := t.TempDir()
	fl := NewFlightRecorder(FlightConfig{Dir: dir})
	fl.Emit(&Event{T: 1, Type: TypeStage, Flow: 0})
	fl.TriggerDump(0, 5, "")
	fl.TriggerDump(0, 5, "")
	fl.TriggerDump(0, 5, "")
	want := []string{"flight-0-5-1.jsonl", "flight-0-5-2.jsonl", "flight-0-5.jsonl"}
	got := dumpNames(t, dir)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("dump files = %v, want %v", got, want)
	}
}

// TestFlightEmptyRingSkips checks a trigger for a flow with no retained
// events writes nothing and counts nothing.
func TestFlightEmptyRingSkips(t *testing.T) {
	dir := t.TempDir()
	fl := NewFlightRecorder(FlightConfig{Dir: dir})
	fl.TriggerDump(3, 1, AnomalyCollapse)
	if got := fl.Dumps(); got != 0 {
		t.Fatalf("Dumps() = %d, want 0 for an empty ring", got)
	}
	if names := dumpNames(t, dir); len(names) != 0 {
		t.Fatalf("empty-ring trigger wrote %v", names)
	}
}

// TestFlightCountersRegister checks the dump/eviction counters land in
// a provided registry.
func TestFlightCountersRegister(t *testing.T) {
	reg := NewRegistry()
	fl := NewFlightRecorder(FlightConfig{PerFlow: 2, Metrics: reg})
	for i := 0; i < 3; i++ {
		fl.Emit(&Event{T: int64(i), Type: TypeStage, Flow: 0})
	}
	fl.Emit(&Event{T: 4, Type: TypeAnomaly, Flow: 0, Reason: AnomalyNoAckStreak})
	snap := reg.Snapshot()
	if got := snap.Counters["libra_flight_evictions_total"]; got != 2 {
		t.Errorf("libra_flight_evictions_total = %d, want 2", got)
	}
	if got := snap.Counters["libra_flight_dumps_total"]; got != 1 {
		t.Errorf("libra_flight_dumps_total = %d, want 1 (dir-less trigger still counts)", got)
	}
}

// BenchmarkFlightEmit measures the enabled flight-recorder hot path:
// one steady-state ring append (no trigger, warm ring).
func BenchmarkFlightEmit(b *testing.B) {
	fl := NewFlightRecorder(FlightConfig{})
	ev := Event{T: 1, Type: TypeEnqueue, Flow: 0, Seq: 42, Bytes: 1500, Queue: 30000}
	fl.Emit(&ev) // allocate the ring up front
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev.T = int64(i)
		fl.Emit(&ev)
	}
}

// TestFlightEmitBudget pins the enabled flight-recorder path: zero
// allocations per event in steady state (always enforced), and
// ≤ 50 ns/event when FLIGHT_BENCH_GUARD arms the wall-clock bound
// (make bench-core / scripts/check.sh run this package in isolation).
func TestFlightEmitBudget(t *testing.T) {
	fl := NewFlightRecorder(FlightConfig{})
	ev := Event{T: 1, Type: TypeEnqueue, Flow: 0, Seq: 42, Bytes: 1500, Queue: 30000}
	fl.Emit(&ev) // warm the ring
	allocs := testing.AllocsPerRun(1000, func() {
		fl.Emit(&ev)
	})
	if allocs > 0 {
		t.Fatalf("FlightRecorder.Emit allocates %.1f allocs/op in steady state, want 0", allocs)
	}

	if os.Getenv("FLIGHT_BENCH_GUARD") == "" {
		t.Log("FLIGHT_BENCH_GUARD unset; skipping ns/event budget (use make bench-core)")
		return
	}
	if raceEnabled {
		t.Log("race detector active; skipping ns/event budget")
		return
	}
	res := testing.Benchmark(BenchmarkFlightEmit)
	ns := float64(res.T.Nanoseconds()) / float64(res.N)
	t.Logf("flight recorder enabled path: %.2f ns/event", ns)
	if ns > 50 {
		t.Fatalf("flight recorder costs %.2f ns/event, budget is <= 50 ns/event", ns)
	}
}
