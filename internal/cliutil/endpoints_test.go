package cliutil

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"libra/internal/analyze"
	"libra/internal/exp"
	"libra/internal/telemetry"
)

// dashMux builds the dashboard the -http flag serves, minus the
// listener, fed with a tiny deterministic event stream so every
// endpoint has data.
func dashMux(t *testing.T) *http.ServeMux {
	t.Helper()
	reg := telemetry.NewRegistry()
	reg.Gauge("libra_health_sim_wall_ratio", "test").Set(12.5)
	ts := telemetry.NewTSCollector(0, 0)
	a := analyze.New(analyze.Config{})
	for _, e := range []telemetry.Event{
		{T: 1e6, Type: telemetry.TypeProfile, Flow: 0, Name: "bulk"},
		{T: 2e6, Type: telemetry.TypeEnqueue, Flow: 0, Link: "l0", Seq: 1, Bytes: 1500, Queue: 1500},
		{T: 3e6, Type: telemetry.TypeQueue, Flow: -1, Link: "l0", Queue: 1500, Rate: 6e6},
		{T: 5e6, Type: telemetry.TypeDecision, Flow: 0, Winner: "x_prev", XPrev: 6e6, UPrev: 1.1, RTT: 40e6},
	} {
		ev := e
		ts.Emit(&ev)
		a.Emit(&ev)
	}
	topo, ok := exp.TopoPreset("parking-lot")
	if !ok {
		t.Fatal("parking-lot preset missing")
	}
	return dashboardMux(reg, ts, topo, a)
}

// TestEndpointShapes pins the JSON shape of every dashboard API: the
// fields the live page depends on must decode and be present.
func TestEndpointShapes(t *testing.T) {
	mux := dashMux(t)
	get := func(path string) map[string]any {
		t.Helper()
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s = %d, want 200", path, w.Code)
		}
		if ct := w.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("GET %s Content-Type = %q, want application/json", path, ct)
		}
		out := map[string]any{}
		if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
			t.Fatalf("GET %s: bad JSON: %v\n%s", path, err, w.Body.String())
		}
		return out
	}

	health := get("/health")
	if health["sim_wall_ratio"] != 12.5 {
		t.Errorf("/health sim_wall_ratio = %v, want 12.5", health["sim_wall_ratio"])
	}

	flows := get("/flows")
	for _, key := range []string{"flows", "events", "span_ms", "link"} {
		if _, ok := flows[key]; !ok {
			t.Errorf("/flows missing %q:\n%v", key, flows)
		}
	}

	series := get("/timeseries")
	if _, ok := series["base_bucket_ms"]; !ok {
		t.Errorf("/timeseries missing base_bucket_ms")
	}
	names := map[string]bool{}
	for _, s := range series["series"].([]any) {
		sm := s.(map[string]any)
		names[sm["name"].(string)] = true
		for _, key := range []string{"kind", "bucket_ms", "points"} {
			if _, ok := sm[key]; !ok {
				t.Errorf("/timeseries series %v missing %q", sm["name"], key)
			}
		}
	}
	for _, want := range []string{
		`link_queue_bytes{link="l0"}`,
		`flow_rtt_ms{flow="0"}`,
		`profile_rate_mbps{profile="bulk"}`,
	} {
		if !names[want] {
			t.Errorf("/timeseries missing series %q (have %v)", want, names)
		}
	}

	topo := get("/topo")
	if topo["name"] != "parking-lot" {
		t.Errorf("/topo name = %v, want parking-lot", topo["name"])
	}
	if n := len(topo["nodes"].([]any)); n == 0 {
		t.Error("/topo has no nodes")
	}
	links := topo["links"].([]any)
	if len(links) == 0 {
		t.Fatal("/topo has no links")
	}
	for _, key := range []string{"label", "from", "to", "utilization", "queue_bytes", "capacity_mbps"} {
		if _, ok := links[0].(map[string]any)[key]; !ok {
			t.Errorf("/topo link missing %q: %v", key, links[0])
		}
	}

	// /metrics must carry the exported series gauges after a scrape.
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d, want 200", w.Code)
	}
	body := w.Body.String()
	for _, want := range []string{`libra_ts_link_queue_bytes{link="l0"}`, `libra_ts_flow_rtt_ms{flow="0"}`} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// TestEndpointErrors pins the failure surface: unknown paths 404, and
// the read-only JSON endpoints reject writes with 405.
func TestEndpointErrors(t *testing.T) {
	mux := dashMux(t)
	cases := []struct {
		method, path string
		want         int
	}{
		{"GET", "/nosuch", http.StatusNotFound},
		{"GET", "/flows/extra", http.StatusNotFound},
		{"POST", "/flows", http.StatusMethodNotAllowed},
		{"POST", "/timeseries", http.StatusMethodNotAllowed},
		{"POST", "/topo", http.StatusMethodNotAllowed},
		{"POST", "/health", http.StatusMethodNotAllowed},
		{"PUT", "/metrics", http.StatusMethodNotAllowed},
		{"DELETE", "/", http.StatusMethodNotAllowed},
		{"HEAD", "/timeseries", http.StatusOK},
	}
	for _, c := range cases {
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest(c.method, c.path, nil))
		if w.Code != c.want {
			t.Errorf("%s %s = %d, want %d", c.method, c.path, w.Code, c.want)
		}
	}

	// Without a collector, /timeseries and /topo are absent (404 from
	// the dashboard catch-all), signalling the page to hide the map.
	reg := telemetry.NewRegistry()
	bare := dashboardMux(reg, nil, nil, analyze.New(analyze.Config{}))
	for _, path := range []string{"/timeseries", "/topo"} {
		w := httptest.NewRecorder()
		bare.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		if w.Code != http.StatusNotFound {
			t.Errorf("GET %s without a collector = %d, want 404", path, w.Code)
		}
	}
}
