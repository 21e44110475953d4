package exp

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"libra/internal/telemetry"
	"libra/internal/trace"
)

// TestRunFlowRecordsMetrics: driving one flow through the runner must
// populate the context's registry with flow histograms, link counters,
// and — for Libra — cycle telemetry, and the snapshot must export as
// both JSON and Prometheus text.
func TestRunFlowRecordsMetrics(t *testing.T) {
	rc := NewRunContext(1)

	s := Scenario{
		Name:     "reg-smoke",
		Capacity: trace.Constant(trace.Mbps(24)),
		MinRTT:   30 * time.Millisecond,
		Buffer:   150_000,
		Duration: 5 * time.Second,
	}
	m := rc.RunFlow(s, untrained("c-libra"), 0)
	if m.ThrMbps <= 0 {
		t.Fatalf("run produced no throughput: %+v", m)
	}
	// The single bottleneck is a degenerate topology: one unlabelled
	// link carrying this run's flow.
	if m.Topo == nil || len(m.Topo.Links()) != 1 || m.Topo.Flows()[0] != m.Flow {
		t.Fatalf("single-bottleneck run: Topo = %v, want the one-link network its flow ran on", m.Topo)
	}

	reg := rc.Metrics
	snap := reg.Snapshot()
	if got := snap.Counters["libra_flows_total"]; got != 1 {
		t.Errorf("libra_flows_total = %d, want 1", got)
	}
	if snap.Counters["libra_cycles_total"] == 0 {
		t.Error("libra_cycles_total not recorded for a c-libra run")
	}
	if snap.Counters["libra_link_delivered_bytes_total"] == 0 {
		t.Error("libra_link_delivered_bytes_total not recorded")
	}
	rtt, ok := snap.Histograms["libra_flow_rtt_ms"]
	if !ok || rtt.Count != 1 {
		t.Errorf("libra_flow_rtt_ms histogram missing or wrong count: %+v", rtt)
	}
	if _, ok := snap.Gauges["libra_link_utilization"]; !ok {
		t.Error("libra_link_utilization gauge missing")
	}

	var js, prom bytes.Buffer
	if err := reg.WriteJSON(&js); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	for _, want := range []string{"libra_flows_total 1", "libra_cycle_wins_total{cand="} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}
	// Its unlabelled link keeps the pre-topology series names.
	if strings.Contains(prom.String(), "link=") {
		t.Errorf("single-bottleneck run registered link-labelled series:\n%s", prom.String())
	}
}

// TestRunnerWiresTracer: a tracer installed on the RunContext must see
// both controller-side and link-side events from a runner-driven flow.
func TestRunnerWiresTracer(t *testing.T) {
	var buf bytes.Buffer
	rec := telemetry.NewRecorder(&buf)
	rc := NewRunContext(1)
	rc.Tracer = rec

	s := Scenario{
		Name:     "trace-smoke",
		Capacity: trace.Constant(trace.Mbps(24)),
		MinRTT:   30 * time.Millisecond,
		Buffer:   150_000,
		Duration: 3 * time.Second,
	}
	rc.RunFlow(s, untrained("c-libra"), 0)
	if err := rec.Close(); err != nil {
		t.Fatalf("recorder close: %v", err)
	}
	evs, err := telemetry.ReadAll(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	kinds := map[telemetry.Type]bool{}
	for i := range evs {
		kinds[evs[i].Type] = true
	}
	for _, want := range []telemetry.Type{telemetry.TypeStage, telemetry.TypeEnqueue, telemetry.TypeQueue} {
		if !kinds[want] {
			t.Errorf("runner trace missing %q events", want)
		}
	}
}

// TestDatacenterExperimentTraced: sec7-datacenter runs through the
// harness's run path, so a tracer on the context sees its scenario
// spans and its bn-labelled bottleneck, and the recorded stream is
// byte-identical at any worker count.
func TestDatacenterExperimentTraced(t *testing.T) {
	e, ok := Get("sec7-datacenter")
	if !ok {
		t.Fatal("sec7-datacenter not registered")
	}
	agents := tinyAgents(t)
	run := func(workers int) ([]byte, string) {
		var buf bytes.Buffer
		rec := telemetry.NewRecorder(&buf)
		rc := &RunContext{Quick: true, Seed: 1, Workers: workers, Agents: agents, Tracer: rec}
		rep := e.Run(rc).String()
		if err := rec.Close(); err != nil {
			t.Fatalf("recorder close: %v", err)
		}
		return buf.Bytes(), rep
	}
	serial, rep := run(1)
	if strings.Contains(rep, "failed") {
		t.Fatalf("a run failed:\n%s", rep)
	}
	evs, err := telemetry.ReadAll(bytes.NewReader(serial))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	var scenarios, enqueues int
	for i := range evs {
		switch ev := &evs[i]; {
		case ev.Type == telemetry.TypeSpan && strings.HasPrefix(ev.Name, "scenario:"):
			scenarios++
		case ev.Type == telemetry.TypeEnqueue && ev.Link == "bn":
			enqueues++
		}
	}
	// One begin and one end per controller's run.
	if scenarios != 2*5 {
		t.Errorf("%d scenario span events, want 10", scenarios)
	}
	if enqueues == 0 {
		t.Error("no enqueue events on the bn link")
	}
	if parallel, _ := run(4); !bytes.Equal(parallel, serial) {
		t.Errorf("event stream differs between workers=1 and workers=4 (%d vs %d bytes)", len(serial), len(parallel))
	}
}
