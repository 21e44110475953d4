package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"libra/internal/exp"
)

// The benchmark runs from the repository root (it loads models/ and
// checks go.mod there), so the tests do too.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func TestPlanIsPureFunctionOfSeed(t *testing.T) {
	for _, w := range workloads {
		for _, size := range []Size{Full, Small} {
			if !reflect.DeepEqual(w.Plan(7, size), w.Plan(7, size)) {
				t.Errorf("%s size %d: two plans from seed 7 differ", w.Name, size)
			}
			if reflect.DeepEqual(w.Plan(7, size), w.Plan(8, size)) {
				t.Errorf("%s size %d: seeds 7 and 8 give identical inputs", w.Name, size)
			}
		}
	}
}

// TestPaperQuickMatchesFigures keeps paper-quick tied to the figures it
// mirrors: one pass of its plan must merge into the same metrics
// registry as running the registered experiments at -quick with the
// same seed and models.
func TestPaperQuickMatchesFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fig7, fig13 and fig17")
	}
	const seed = 5
	w, err := workloadByName("paper-quick")
	if err != nil {
		t.Fatal(err)
	}
	agents, err := setup(seed)
	if err != nil {
		t.Fatal(err)
	}
	p, err := runPass(w.Plan(seed, Full), agents, seed, benchWorkers, false, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rc := exp.NewRunContext(seed)
	rc.Quick = true
	rc.Workers = benchWorkers
	rc.Agents = agents
	for _, id := range paperQuickExperiments {
		e, ok := exp.Get(id)
		if !ok {
			t.Fatalf("experiment %s is not registered", id)
		}
		e.Run(rc)
	}
	want := rc.Metrics.Snapshot()
	for name := range wallClockHistograms {
		delete(want.Histograms, name)
		delete(p.Snap.Histograms, name)
	}
	if !reflect.DeepEqual(p.Snap, want) {
		for _, kind := range []string{"counters", "gauges", "histograms"} {
			var got, exp any
			switch kind {
			case "counters":
				got, exp = p.Snap.Counters, want.Counters
			case "gauges":
				got, exp = p.Snap.Gauges, want.Gauges
			default:
				got, exp = p.Snap.Histograms, want.Histograms
			}
			if !reflect.DeepEqual(got, exp) {
				t.Errorf("%s differ:\npass    %v\nfigures %v", kind, got, exp)
			}
		}
	}
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestManifestMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want 6", len(keys))
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of range", m.RunSeconds)
	}
	if !reflect.DeepEqual(m.Command, []string{"bash", "benchmark/run.sh"}) || !reflect.DeepEqual(m.Paths, []string{"benchmark"}) {
		t.Errorf("command %v, paths %v", m.Command, m.Paths)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: manifest %+v, benchmark %s: %s", i, m.Workloads[i], w.Name, w.Why)
		}
	}
	if len(m.EndToEnd) != len(endToEnd) || len(m.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts differ: manifest %d+%d, benchmark %d+%d",
			len(m.EndToEnd), len(m.PerLayer), len(endToEnd), len(perLayer))
	}
	maxBound := 0.0
	for i, e := range endToEnd {
		got := m.EndToEnd[i]
		if got.Name != e.Name || got.Unit != e.Unit || got.Better != e.Better || got.Bound != e.Bound {
			t.Errorf("end_to_end %d: manifest %+v, benchmark %+v", i, got, e)
		}
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
		maxBound = max(maxBound, e.Bound)
	}
	for _, e := range endToEnd {
		if e.Name == "setup_s" && (e.Unit != "s" || e.Better != "lower" || e.Bound != maxBound) {
			t.Errorf("setup_s must be in s, lower-better, with the largest bound: %+v", e)
		}
	}
	for i, p := range perLayer {
		got := m.PerLayer[i]
		if got.Name != p.Name || got.Unit != p.Unit || got.Better != p.Better {
			t.Errorf("per_layer %d: manifest %+v, benchmark %+v", i, got, p)
		}
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name, unit, better string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("bad or duplicate name %q", name)
		}
		seen[name] = true
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s: bad unit %q", name, unit)
		}
		if better != "" && better != "lower" && better != "higher" {
			t.Errorf("%s: better %q", name, better)
		}
	}
	for _, w := range m.Workloads {
		check(w.Name, "", "")
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is not one line of at most 200 characters", w.Name)
		}
	}
	for _, e := range m.EndToEnd {
		check(e.Name, e.Unit, e.Better)
	}
	for _, p := range m.PerLayer {
		check(p.Name, p.Unit, p.Better)
	}
}

func TestListPrintsEveryMetricWithUnit(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--list"}, &out, &errOut); code != 0 {
		t.Fatalf("--list exited %d: %s", code, errOut.String())
	}
	text := out.String()
	for _, w := range workloads {
		if !strings.Contains(text, w.Name) {
			t.Errorf("--list misses workload %s", w.Name)
		}
	}
	for _, m := range append(append([]Metric{}, endToEnd...), perLayer...) {
		re := regexp.MustCompile(`(?m)^\s+` + regexp.QuoteMeta(m.Name) + `\s+` + regexp.QuoteMeta(m.Unit) + `\s+` + m.Better)
		if !re.MatchString(text) {
			t.Errorf("--list misses %s with unit %s and direction %s", m.Name, m.Unit, m.Better)
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Fatalf("unknown workload: exit %d, stdout %q", code, out.String())
	}
}

// runOnce runs one workload with the smallest timed phase: one
// untraced pass, and for trace 1 one traced pass as well.
func runOnce(t *testing.T, name string, size Size, trace int) map[string]float64 {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	o := options{workload: name, seed: 3, trace: trace, size: size, scratch: t.TempDir()}
	var log bytes.Buffer
	res, err := runWorkload(w, o, &log)
	if err != nil {
		t.Fatalf("%s trace %d: %v", name, trace, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s trace %d: correct %t attempted %d failed %d\n%s",
			name, trace, res.Correct, res.Attempted, res.Failed, log.String())
	}
	want := endToEnd
	if trace == 1 {
		want = perLayer
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s trace %d: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
	}
	vals := map[string]float64{}
	for _, m := range want {
		v, ok := res.Metrics[m.Name]
		if !ok || v.Unit != m.Unit {
			t.Errorf("%s trace %d: metric %s missing or not in %s: %+v", name, trace, m.Name, m.Unit, v)
		}
		if trace == 0 && v.Value == 0 {
			t.Errorf("%s: end-to-end metric %s is 0", name, m.Name)
		}
		vals[m.Name] = v.Value
	}
	return vals
}

// TestScaledDownRuns runs every workload on its small inputs, untraced
// and traced, and checks the outputs.
func TestScaledDownRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		runOnce(t, w.Name, Small, 0)
		layer := runOnce(t, w.Name, Small, 1)
		rig := w.Plan(3, Small).Tournament != nil
		if tel := layer["telemetry.events"]; (tel > 0) != rig {
			t.Errorf("%s: %v telemetry events, rig attached: %t", w.Name, tel, rig)
		}
		if rig && layer["lab.evals"] <= 0 {
			t.Errorf("%s: no lab evaluations", w.Name)
		}
	}
}

// TestWorkloadSignatures checks, on the full inputs, what sets
// paper-quick and dc-fabric apart.
func TestWorkloadSignatures(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full passes")
	}
	pq := runOnce(t, "paper-quick", Full, 1)
	dc := runOnce(t, "dc-fabric", Full, 1)
	if v := pq["rlcc.gemm_batches"]; v != 0 {
		t.Errorf("paper-quick formed %v GEMM batches, want 0", v)
	}
	if v := dc["rlcc.gemm_batches"]; v <= 0 {
		t.Error("dc-fabric formed no GEMM batches")
	}
	if pq["netem.inflight_pkts"] < 10*dc["netem.inflight_pkts"] {
		t.Errorf("paper-quick in-flight window %v is not 10x dc-fabric's %v",
			pq["netem.inflight_pkts"], dc["netem.inflight_pkts"])
	}
	if dc["netem.goodput_share"] >= pq["netem.goodput_share"] {
		t.Errorf("dc-fabric goodput share %v is not below paper-quick's %v",
			dc["netem.goodput_share"], pq["netem.goodput_share"])
	}
}

func TestReadmeDocumentsEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("benchmark/README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range append(append([]Metric{}, endToEnd...), perLayer...) {
		if !strings.Contains(string(raw), "| `"+m.Name+"` | "+m.Unit+" |") {
			t.Errorf("README.md has no table row for %s (%s)", m.Name, m.Unit)
		}
	}
}
