package exp

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"libra/internal/analyze"
	"libra/internal/cc"
	"libra/internal/cc/cubic"
	"libra/internal/telemetry"
)

func TestTopoPresetsBuildAndRun(t *testing.T) {
	for _, name := range TopoPresetNames() {
		ts, ok := TopoPreset(name)
		if !ok {
			t.Fatalf("preset %s vanished", name)
		}
		if err := ts.Validate(); err != nil {
			t.Fatalf("preset %s invalid: %v", name, err)
		}
		tp, routes, err := ts.Build(TopoBuild{Seed: 3})
		if err != nil {
			t.Fatalf("preset %s: %v", name, err)
		}
		if routes[ts.Main] == nil {
			t.Fatalf("preset %s: main route %q missing after build", name, ts.Main)
		}
		if len(tp.Links()) != len(ts.Links) {
			t.Fatalf("preset %s: built %d links, spec has %d", name, len(tp.Links()), len(ts.Links))
		}
		if i := ts.MainBottleneck(); i < 0 {
			t.Fatalf("preset %s: no main bottleneck", name)
		}
	}
}

func TestParseTopoRejects(t *testing.T) {
	cases := []struct {
		name, body, want string
	}{
		{"unknown node",
			`{"nodes":["a"],"links":[{"label":"l","from":"a","to":"zz","cap_mbps":10}],"routes":[{"name":"m","links":["l"]}],"main":"m"}`,
			"unknown node"},
		{"zero capacity",
			`{"nodes":["a","b"],"links":[{"label":"l","from":"a","to":"b"}],"routes":[{"name":"m","links":["l"]}],"main":"m"}`,
			"zero capacity"},
		{"route cycle",
			`{"nodes":["a","b"],"links":[{"label":"l","from":"a","to":"b","cap_mbps":10},{"label":"r","from":"b","to":"a","cap_mbps":10}],"routes":[{"name":"m","links":["l","r","l"]}],"main":"m"}`,
			"revisits"},
		{"disconnected route",
			`{"nodes":["a","b","c"],"links":[{"label":"l","from":"a","to":"b","cap_mbps":10},{"label":"r","from":"a","to":"c","cap_mbps":10}],"routes":[{"name":"m","links":["l","r"]}],"main":"m"}`,
			"breaks"},
		{"missing main",
			`{"nodes":["a","b"],"links":[{"label":"l","from":"a","to":"b","cap_mbps":10}],"routes":[{"name":"m","links":["l"]}],"main":"zz"}`,
			"not declared"},
		{"unknown field",
			`{"nodes":["a","b"],"wat":1}`,
			"parse"},
		{"cross on unknown route",
			`{"nodes":["a","b"],"links":[{"label":"l","from":"a","to":"b","cap_mbps":10}],"routes":[{"name":"m","links":["l"]}],"main":"m","cross":[{"route":"zz"}]}`,
			"unknown route"},
		{"unlabelled sole link",
			`{"nodes":["a","b"],"links":[{"from":"a","to":"b","cap_mbps":10}],"routes":[{"name":"m","links":[""]}],"main":"m"}`,
			"no label"},
		// Graph rules: netem.NewTopology and AddRoute reject these.
		{"self-loop",
			`{"nodes":["a","b"],"links":[{"label":"l","from":"a","to":"a","cap_mbps":10}],"routes":[{"name":"m","links":["l"]}],"main":"m"}`,
			"self-loop"},
		{"duplicate link label",
			`{"nodes":["a","b","c"],"links":[{"label":"l","from":"a","to":"b","cap_mbps":10},{"label":"l","from":"b","to":"c","cap_mbps":10}],"routes":[{"name":"m","links":["l"]}],"main":"m"}`,
			"duplicate link label"},
		{"duplicate node",
			`{"nodes":["a","b","a"],"links":[{"label":"l","from":"a","to":"b","cap_mbps":10}],"routes":[{"name":"m","links":["l"]}],"main":"m"}`,
			"duplicate node"},
		{"route over undeclared link",
			`{"nodes":["a","b"],"links":[{"label":"l","from":"a","to":"b","cap_mbps":10}],"routes":[{"name":"m","links":["zz"]}],"main":"m"}`,
			"unknown link"},
	}
	for _, tc := range cases {
		if _, err := ParseTopo([]byte(tc.body)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error = %v, want containing %q", tc.name, err, tc.want)
		}
	}
	if _, err := LoadTopo("no-such-preset"); err == nil || !strings.Contains(err.Error(), "unknown preset") {
		t.Errorf("LoadTopo(bogus) = %v", err)
	}
	if ts, err := LoadTopo(""); ts != nil || err != nil {
		t.Errorf("LoadTopo(\"\") = %v, %v; want nil, nil", ts, err)
	}
}

// topoScenario is the shared quick parking-lot workload.
func topoScenario(d time.Duration) Scenario {
	ts, _ := TopoPreset("parking-lot")
	return Scenario{Name: "parking-lot", Duration: d, Topo: ts}
}

func TestRunFlowOverTopology(t *testing.T) {
	rc := NewRunContext(7)
	m := rc.RunFlow(topoScenario(3*time.Second), CCAMaker("cubic", nil)(rc), 0)
	if m.Failed {
		t.Fatalf("topo run failed: %v", m.Err)
	}
	if m.Topo == nil || m.Topo.LinkByLabel("h1") == nil || m.Topo.Flows()[0] != m.Flow {
		t.Fatalf("topo run: Topo = %v is not the parking-lot network its flow ran on", m.Topo)
	}
	if m.ThrMbps <= 0 || m.Util <= 0 {
		t.Fatalf("topo run produced no throughput: thr %.2f util %.3f", m.ThrMbps, m.Util)
	}
	// Main flow shares each 48 Mbps hop with one cubic cross flow; it
	// cannot beat the bottleneck rate.
	if m.ThrMbps > 49 {
		t.Errorf("main flow throughput %.1f Mbps exceeds the hop capacity", m.ThrMbps)
	}
	// Per-hop metrics registered with link labels.
	text := registryText(t, rc)
	for _, want := range []string{
		`libra_link_delivered_bytes_total{link="h0"}`,
		`libra_link_drops_total{link="h1",reason="tail"}`,
		`libra_link_utilization{link="h2"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("registry missing %s", want)
		}
	}
}

func registryText(t *testing.T, rc *RunContext) string {
	t.Helper()
	var buf bytes.Buffer
	if err := rc.Metrics.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// The tentpole determinism criterion: a parking-lot sweep records a
// byte-identical event stream at any worker count, and the analyzer
// attributes drops/queueing to individual hops.
func TestTopoSweepDeterministicAcrossWorkers(t *testing.T) {
	runAt := func(workers int) []byte {
		var jsonl bytes.Buffer
		rec := telemetry.NewRecorder(&jsonl)
		rc := NewRunContext(11)
		rc.Workers = workers
		rc.Tracer = rec
		Sweep(rc, 3, func(jc *RunContext, i int) int {
			ms := jc.RunFlows(topoScenario(2*time.Second),
				[]Maker{CCAMaker("cubic", nil)(jc), CCAMaker("bbr", nil)(jc)},
				[]time.Duration{0, 500 * time.Millisecond}, 0)
			for _, m := range ms {
				if m.Failed {
					t.Errorf("job %d failed: %v", i, m.Err)
				}
			}
			return i
		})
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		return jsonl.Bytes()
	}
	serial := runAt(1)
	parallel := runAt(4)
	if !bytes.Equal(serial, parallel) {
		t.Fatal("parking-lot sweep event stream differs between 1 and 4 workers")
	}
	if len(serial) == 0 {
		t.Fatal("sweep recorded no events")
	}

	an, err := analyze.ReadStream(bytes.NewReader(serial), analyze.Config{})
	if err != nil {
		t.Fatal(err)
	}
	an.Finalize()
	r := an.Report()
	if len(r.Links) == 0 {
		t.Fatal("analyzer found no per-link attribution in a multi-hop trace")
	}
	byLabel := map[string]analyze.LinkReport{}
	for _, l := range r.Links {
		byLabel[l.Label] = l
	}
	for _, lbl := range []string{"h0", "h1", "h2"} {
		lr, ok := byLabel[lbl]
		if !ok {
			t.Fatalf("no link report for hop %s (have %v)", lbl, labelsOf(r.Links))
		}
		if lr.QueueBytes.N == 0 {
			t.Errorf("hop %s has no queue samples", lbl)
		}
	}
	var text bytes.Buffer
	if err := r.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "per-link attribution:") {
		t.Error("text report missing per-link section")
	}
}

func labelsOf(ls []analyze.LinkReport) []string {
	out := make([]string, len(ls))
	for i, l := range ls {
		out[i] = l.Label
	}
	return out
}

func FuzzParseTopo(f *testing.F) {
	f.Add(`{"nodes":["a","b"],"links":[{"label":"l","from":"a","to":"b","cap_mbps":10}],"routes":[{"name":"m","links":["l"]}],"main":"m"}`)
	f.Add(`{"nodes":["a"],"links":[{"label":"l","from":"a","to":"zz","cap_mbps":10}],"routes":[{"name":"m","links":["l"]}],"main":"m"}`)
	f.Add(`{"nodes":["a","b"],"links":[{"label":"l","from":"a","to":"b"}],"routes":[{"name":"m","links":["l"]}],"main":"m"}`)
	f.Add(`{"nodes":["a","b"],"links":[{"label":"l","from":"a","to":"b","cap_mbps":10},{"label":"r","from":"b","to":"a","cap_mbps":10}],"routes":[{"name":"m","links":["l","r","l"]}],"main":"m"}`)
	f.Add(`{"nodes":[],"links":[],"routes":[],"main":""}`)
	f.Add(`not json at all`)
	f.Fuzz(func(t *testing.T, body string) {
		ts, err := ParseTopo([]byte(body))
		if err != nil {
			return
		}
		// Anything the parser accepts must validate and build.
		if err := ts.Validate(); err != nil {
			t.Fatalf("parsed spec fails validation: %v", err)
		}
		if _, _, err := ts.Build(TopoBuild{Seed: 1}); err != nil {
			t.Fatalf("validated spec fails to build: %v\nspec: %s", err, body)
		}
	})
}

// panicky is a controller that panics on its first ACK.
type panicky struct{ cc.Controller }

func (panicky) OnAck(*cc.Ack) { panic("boom") }

// A panic out of one flow marks every main flow of the run failed and
// counts one failure, on the plain and the topology path alike, instead
// of unwinding the caller.
func TestRunContainsControllerPanic(t *testing.T) {
	mks := []Maker{
		func(seed int64) cc.Controller { return cubic.New(cc.Config{Seed: seed}) },
		func(seed int64) cc.Controller { return panicky{cubic.New(cc.Config{Seed: seed})} },
	}
	for _, s := range []Scenario{
		WiredScenarios(time.Second, 24)[0],
		{Name: "one-link", Duration: time.Second, Topo: bottleneckTopo(TopoLink{CapMbps: 24, DelayMs: 15})},
	} {
		rc := NewRunContext(1)
		ms := rc.RunFlows(s, mks, nil, 0)
		if len(ms) != len(mks) {
			t.Fatalf("%s: %d results for %d flows", s.Name, len(ms), len(mks))
		}
		for i, m := range ms {
			if !m.Failed || m.Err == nil || !strings.Contains(m.Err.Error(), "boom") {
				t.Errorf("%s: flow %d = %+v, want failed with the panic", s.Name, i, m)
			}
		}
		if got := rc.Metrics.Snapshot().Counters["libra_flow_failures_total"]; got != 1 {
			t.Errorf("%s: libra_flow_failures_total = %d, want 1", s.Name, got)
		}
	}
}
