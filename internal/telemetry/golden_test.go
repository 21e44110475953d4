package telemetry

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// goldenRegistry builds the fixture registry: a plain counter, a
// labelled counter pair, a gauge, and a labelled histogram — one of
// every exposition shape the exporter emits — plus the observability
// families the flight recorder and health sampler register, so their
// metric names and rendering are pinned too.
func goldenRegistry() *Registry {
	reg := NewRegistry()
	reg.Counter("libra_flows_total", "flows driven by the experiment harness").Add(4)
	reg.Counter(`libra_link_drops_total{reason="tail"}`, "bottleneck drops by reason").Add(17)
	reg.Counter(`libra_link_drops_total{reason="aqm"}`, "bottleneck drops by reason").Add(3)
	reg.Gauge("libra_link_utilization", "delivered bytes / mean capacity of the last recorded run").Set(0.875)
	h := reg.Histogram(`libra_flow_rtt_ms{cca="c-libra"}`, "per-flow mean RTT", []float64{10, 50, 100})
	h.Observe(8)
	h.Observe(42)
	h.Observe(43)
	h.Observe(250)

	// Flight-recorder counters, with some traffic so both families render.
	fl := NewFlightRecorder(FlightConfig{PerFlow: 2, Metrics: reg})
	for i := 0; i < 3; i++ {
		fl.Emit(&Event{T: int64(i), Type: TypeStage, Flow: 0})
	}
	fl.Emit(&Event{T: 4, Type: TypeAnomaly, Flow: 0, Reason: AnomalyNoAckStreak})

	// Health gauges, sampled from a deterministic source. Wall-clock
	// rates and runtime stats are overwritten with fixed values after
	// the sample so the fixture stays byte-stable.
	hs := NewHealth(reg)
	hs.Register(progressConst{simNs: 5e9, events: 1200, pending: 3})
	hs.Sample()
	reg.Gauge("libra_health_sim_wall_ratio", "").Set(250)
	reg.Gauge("libra_health_events_per_second", "").Set(1.5e6)
	reg.Gauge("libra_health_heap_bytes", "").Set(16_777_216)
	reg.Gauge("libra_health_gc_total", "").Set(7)
	reg.Gauge("libra_health_goroutines", "").Set(9)

	// Time-series export: a deterministic collector feed, mirrored into
	// the registry as libra_ts_* gauges — every per-link family carries
	// a link label (the unlabelled bottleneck renders as link="bn").
	ts := NewTSCollector(0, 0)
	for _, e := range []Event{
		{T: 2e6, Type: TypeProfile, Flow: 0, Name: "bulk"},
		{T: 3e6, Type: TypeEnqueue, Flow: 0, Seq: 1, Bytes: 1500, Queue: 1500},
		{T: 4e6, Type: TypeQueue, Flow: -1, Queue: 1500, Rate: 6e6},
		{T: 5e6, Type: TypeDecision, Flow: 0, Winner: "x_prev", XPrev: 6e6, UPrev: 1.25, RTT: 40e6},
	} {
		ev := e
		ts.Emit(&ev)
	}
	ts.ExportProm(reg)

	// SLO / profile gauges, named exactly as analyze's Report.ExportMetrics
	// emits them (set directly here: analyze cannot be imported from
	// telemetry's tests without a cycle).
	reg.Gauge(`libra_slo_attainment{profile="bulk",metric="mean_thr_mbps"}`,
		"fraction of windows meeting the SLO").Set(0.97)
	reg.Gauge(`libra_slo_first_violation_ms{profile="bulk",metric="mean_thr_mbps"}`,
		"start of the earliest violating window (-1 = never)").Set(4000)
	reg.Gauge(`libra_profile_mean_thr_mbps{profile="bulk"}`,
		"per-flow mean throughput of the profile").Set(18.4)
	reg.Gauge("libra_profile_jain",
		"cross-profile Jain fairness over mean throughput").Set(0.9812)
	return reg
}

// progressConst is a fixed-value ProgressSource for fixtures.
type progressConst struct{ simNs, events, pending int64 }

func (p progressConst) Progress() (int64, int64, int64) { return p.simNs, p.events, p.pending }

// TestPrometheusGolden pins the text exposition format byte-for-byte
// against testdata/registry.prom, so any change to HELP/TYPE
// rendering, label merging, cumulative bucket math, or float
// formatting shows up as a reviewable diff. Regenerate with
// GOLDEN_UPDATE=1 go test ./internal/telemetry/ -run TestPrometheusGolden.
func TestPrometheusGolden(t *testing.T) {
	var got bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&got); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "registry.prom")
	if os.Getenv("GOLDEN_UPDATE") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d bytes)", path, got.Len())
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden file (regenerate with GOLDEN_UPDATE=1): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("Prometheus exposition drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", got.Bytes(), want)
	}
}

// TestPrometheusHistogramSumCountConsistent checks the structural
// invariants scrapers rely on, independent of exact formatting: every
// histogram family exposes _sum and _count, the +Inf bucket equals
// _count, and the mean implied by _sum/_count lies within the observed
// range.
func TestPrometheusHistogramSumCountConsistent(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(buf.String(), "\n")
	vals := map[string]float64{}
	for _, ln := range lines {
		if ln == "" || strings.HasPrefix(ln, "#") {
			continue
		}
		i := strings.LastIndexByte(ln, ' ')
		if i < 0 {
			t.Fatalf("unparseable exposition line %q", ln)
		}
		v, err := strconv.ParseFloat(ln[i+1:], 64)
		if err != nil {
			t.Fatalf("line %q: %v", ln, err)
		}
		vals[ln[:i]] = v
	}

	count, okC := vals[`libra_flow_rtt_ms_count{cca="c-libra"}`]
	sum, okS := vals[`libra_flow_rtt_ms_sum{cca="c-libra"}`]
	inf, okI := vals[`libra_flow_rtt_ms_bucket{cca="c-libra",le="+Inf"}`]
	if !okC || !okS || !okI {
		t.Fatalf("histogram family incomplete: count=%v sum=%v +Inf=%v\n%s", okC, okS, okI, buf.String())
	}
	if count != 4 {
		t.Errorf("_count = %v, want 4", count)
	}
	if want := 8.0 + 42 + 43 + 250; sum != want {
		t.Errorf("_sum = %v, want %v", sum, want)
	}
	if inf != count {
		t.Errorf("+Inf bucket %v != _count %v", inf, count)
	}

	// The new observability families must be present with their traffic.
	for name, want := range map[string]float64{
		"libra_flight_dumps_total":      1,
		"libra_flight_evictions_total":  2,
		"libra_health_sim_time_seconds": 5,
		"libra_health_pending_timers":   3,
		"libra_health_sim_wall_ratio":   250,
		// Time-series and SLO families: per-link series must carry the
		// link label, per-flow the flow label, per-profile the profile
		// label — the naming contract the dashboards scrape against.
		`libra_ts_link_queue_bytes{link="bn"}`:                        1500,
		`libra_ts_flow_rtt_ms{flow="0"}`:                              40,
		`libra_ts_flow_utility{flow="0"}`:                             1.25,
		`libra_ts_profile_utility{profile="bulk"}`:                    1.25,
		`libra_slo_attainment{profile="bulk",metric="mean_thr_mbps"}`: 0.97,
		`libra_profile_mean_thr_mbps{profile="bulk"}`:                 18.4,
		"libra_profile_jain":                                          0.9812,
	} {
		if got, ok := vals[name]; !ok || got != want {
			t.Errorf("%s = %v (present=%v), want %v", name, got, ok, want)
		}
	}
}
