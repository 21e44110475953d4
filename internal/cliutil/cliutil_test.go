package cliutil

import (
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"libra/internal/exp"
	"libra/internal/telemetry"
	"libra/internal/trace"
)

// The debug mux must carry the explicit pprof routes and /metrics —
// and nothing registered on http.DefaultServeMux.
func TestDebugMuxRoutes(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("c_total", "a counter").Add(3)
	mux := debugMux(reg, nil)

	get := func(path string) *httptest.ResponseRecorder {
		t.Helper()
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		return w
	}

	if w := get("/debug/pprof/"); w.Code != http.StatusOK {
		t.Errorf("GET /debug/pprof/ = %d, want 200", w.Code)
	}
	if w := get("/debug/pprof/goroutine?debug=1"); w.Code != http.StatusOK {
		t.Errorf("GET /debug/pprof/goroutine = %d, want 200", w.Code)
	}
	w := get("/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d, want 200", w.Code)
	}
	if !strings.Contains(w.Body.String(), "c_total 3") {
		t.Errorf("/metrics missing counter:\n%s", w.Body.String())
	}

	// Isolation both ways: a route on the default mux must not appear
	// on the debug mux.
	http.DefaultServeMux.HandleFunc("/cliutil-test-leak", func(http.ResponseWriter, *http.Request) {})
	if w := get("/cliutil-test-leak"); w.Code == http.StatusOK {
		t.Error("default-mux route leaked into the debug mux")
	}
}

// debugMux without a registry still serves pprof but not /metrics.
func TestDebugMuxNoRegistry(t *testing.T) {
	mux := debugMux(nil, nil)
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	if w.Code == http.StatusOK {
		t.Fatalf("GET /metrics without a registry = %d, want non-200", w.Code)
	}
}

// A rig with every file sink set records one short run end to end: the
// stream passes the schema check, the metrics and time-series snapshots
// parse and cover the run, and the flight directory exists.
func TestRigFileSinks(t *testing.T) {
	dir := t.TempDir()
	events := filepath.Join(dir, "events.jsonl")
	metrics := filepath.Join(dir, "metrics.json")
	series := filepath.Join(dir, "series.json")
	flight := filepath.Join(dir, "flight")
	fs := flag.NewFlagSet("rig", flag.ContinueOnError)
	rig := AddRig(fs)
	if err := fs.Parse([]string{"-parallel", "1", "-trace-out", events, "-metrics-out", metrics,
		"-timeseries-out", series, "-flight-out", flight}); err != nil {
		t.Fatal(err)
	}
	rc, err := rig.Open(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Workers != 1 || rc.Health == nil || rc.Tracer == nil {
		t.Fatalf("rig context: workers %d, health %v, tracer %v", rc.Workers, rc.Health, rc.Tracer)
	}
	mk, err := exp.MakerFor("cubic", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := rc.RunFlow(exp.Scenario{Name: "wired", Capacity: trace.Constant(trace.Mbps(12)),
		MinRTT: 40 * time.Millisecond, Buffer: 60000, Duration: 2 * time.Second}, mk, 0)
	if m.Failed {
		t.Fatal(m.Err)
	}
	if err := rig.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(events)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if n, err := telemetry.ValidateStream(f, events); err != nil || n == 0 {
		t.Fatalf("trace-out: %d events, %v", n, err)
	}
	var snap telemetry.Snapshot
	readJSON(t, metrics, &snap)
	if snap.Counters["libra_flows_total"] != 1 {
		t.Errorf("metrics-out: libra_flows_total = %v, want 1", snap.Counters["libra_flows_total"])
	}
	var ts struct {
		Series []struct{ Name string } `json:"series"`
	}
	readJSON(t, series, &ts)
	if len(ts.Series) == 0 {
		t.Error("timeseries-out holds no series")
	}
	if st, err := os.Stat(flight); err != nil || !st.IsDir() {
		t.Errorf("flight-out directory: %v", err)
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
