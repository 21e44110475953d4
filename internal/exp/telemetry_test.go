package exp

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"libra/internal/analyze"
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

// analyzeRuns feeds the runs, in order, into a fresh analyzer and
// returns its report.
func analyzeRuns(runs ...[]telemetry.Event) *analyze.Report {
	a := analyze.New(analyze.Config{})
	for _, run := range runs {
		for i := range run {
			a.Emit(&run[i])
		}
	}
	a.Finalize()
	return a.Report()
}

// A recorded three-run profile sweep reads, as a whole, what its runs
// read alone: each SLO's windows and met windows are the sums over the
// runs, and each profile's mean throughput is the mean of its per-run
// values, each a share of the 48 Mbps link.
func TestProfileSweepAnalyzedPerRun(t *testing.T) {
	var buf bytes.Buffer
	rec := telemetry.NewRecorder(&buf)
	rc := NewRunContext(3)
	rc.Tracer = rec
	s := WiredScenarios(3*time.Second, 48)[0]
	s.Profiles = []string{"bulk", "low-latency", "background"}
	mks := []Maker{untrained("cubic"), untrained("c-libra"), untrained("c-libra")}
	Sweep(rc, 3, func(jc *RunContext, _ int) []Metrics { return jc.RunFlows(s, mks, nil, 0) })
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	evs, err := telemetry.ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var runs [][]telemetry.Event
	start := 0
	for i, e := range evs {
		if e.Type == telemetry.TypeSpan && e.Flow == -1 && e.Reason == telemetry.SpanEnd && strings.HasPrefix(e.Name, "scenario:") {
			runs = append(runs, evs[start:i+1])
			start = i + 1
		}
	}
	if len(runs) != 3 || start != len(evs) {
		t.Fatalf("split %d events into %d runs ending at %d, want 3 runs covering the stream", len(evs), len(runs), start)
	}

	whole := analyzeRuns(runs...)
	alone := make([]*analyze.Report, len(runs))
	for i, run := range runs {
		alone[i] = analyzeRuns(run)
	}
	if len(whole.SLOs) != 3 {
		t.Fatalf("whole stream reports %d SLOs, want 3 (bulk, low-latency, background)", len(whole.SLOs))
	}
	for i, w := range whole.SLOs {
		var windows, met int
		for _, r := range alone {
			windows += r.SLOs[i].Windows
			met += r.SLOs[i].Met
		}
		if w.Windows != windows || w.Met != met || windows == 0 {
			t.Errorf("%s: whole stream %d/%d windows met, runs alone %d/%d", w.Spec, w.Met, w.Windows, met, windows)
		}
	}
	for i, p := range whole.Profiles {
		var sum float64
		for _, r := range alone {
			sum += r.Profiles[i].MeanThrMbps
		}
		want := sum / float64(len(alone))
		if math.Abs(p.MeanThrMbps-want) > 1e-9*want || !(want > 0 && want < 48) {
			t.Errorf("%s: whole-stream mean throughput %v Mbps, per-run mean %v", p.Profile, p.MeanThrMbps, want)
		}
	}
}

// An analyzer tapping a traced sweep with cross traffic names every
// flow, main and cross, from the stream alone, and reports identically
// at any worker count.
func TestSweepNamesEveryFlow(t *testing.T) {
	report := func(workers int) []byte {
		a := analyze.New(analyze.Config{})
		rc := &RunContext{Seed: 5, Workers: workers, Tracer: a}
		s := topoScenario(time.Second)
		mks := []Maker{untrained("bbr"), untrained("copa")}
		Sweep(rc, 8, func(jc *RunContext, _ int) []Metrics { return jc.RunFlows(s, mks, nil, 0) })
		a.Finalize()
		r := a.Report()
		want := []string{"bbr", "copa", "cubic", "cubic", "cubic"}
		if len(r.Flows) != len(want) {
			t.Fatalf("workers=%d: %d flows reported, want %d", workers, len(r.Flows), len(want))
		}
		for i, f := range r.Flows {
			if f.Name != want[i] {
				t.Errorf("workers=%d: flow %d named %q, want %q", workers, f.ID, f.Name, want[i])
			}
		}
		var b bytes.Buffer
		if err := r.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	if serial, parallel := report(1), report(4); !bytes.Equal(serial, parallel) {
		t.Error("report differs between workers=1 and workers=4")
	}
}
