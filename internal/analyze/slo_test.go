package analyze

import (
	"bytes"
	"math"
	"testing"
	"time"

	"libra/internal/telemetry"
)

func TestParseSLO(t *testing.T) {
	valid := []struct {
		in   string
		want SLOSpec
	}{
		{"bulk:mean_thr_mbps>=5", SLOSpec{"bulk", SLOMeanThrMbps, ">=", 5}},
		{" low-latency : p95_rtt_ms <= 100 ", SLOSpec{"low-latency", SLOP95RTTMs, "<=", 100}},
		{"x:p99_rtt_ms<=1.5", SLOSpec{"x", SLOP99RTTMs, "<=", 1.5}},
		{"x:mean_rtt_ms<=30", SLOSpec{"x", SLOMeanRTTMs, "<=", 30}},
	}
	for _, c := range valid {
		got, err := ParseSLO(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseSLO(%q) = %+v, %v; want %+v", c.in, got, err, c.want)
		}
	}

	invalid := []string{
		"",
		"noprofile<=5",       // missing colon
		":p95_rtt_ms<=1",     // empty profile
		"p:bogus<=1",         // unknown metric
		"p:mean_thr_mbps<=5", // throughput floors use >=
		"p:p95_rtt_ms>=5",    // RTT bounds use <=
		"p:p95_rtt_ms<=abc",  // bad threshold
		"p:<=5",              // empty metric
		" :p95_rtt_ms<=1",    // blank profile
		"p:p95_rtt_ms<=NaN",  // no finite threshold
		"p:p95_rtt_ms<=+Inf", // no finite threshold
	}
	for _, in := range invalid {
		if got, err := ParseSLO(in); err == nil {
			t.Errorf("ParseSLO(%q) = %+v, want error", in, got)
		}
	}

	specs, err := ParseSLOs(" a:p95_rtt_ms<=1, b:mean_thr_mbps>=2 ")
	if err != nil || len(specs) != 2 || specs[1].Profile != "b" {
		t.Errorf("ParseSLOs list = %+v, %v", specs, err)
	}
	if specs, err := ParseSLOs(""); err != nil || specs != nil {
		t.Errorf("ParseSLOs(\"\") = %+v, %v, want nil, nil", specs, err)
	}
	if _, err := ParseSLOs("a:p95_rtt_ms<=1,garbage"); err == nil {
		t.Error("ParseSLOs with a bad entry: want error")
	}

	// The default objectives must round-trip through their own String form.
	for _, s := range DefaultSLOs() {
		got, err := ParseSLO(s.String())
		if err != nil || got != s {
			t.Errorf("round-trip %q = %+v, %v", s.String(), got, err)
		}
	}
}

// The windowed tail checks are exceedance-fraction tests; pin the
// boundary: a window meets "p95<=X" iff at most 5% of samples exceeded.
func TestSLOViolatedBoundary(t *testing.T) {
	p95 := SLOSpec{Metric: SLOP95RTTMs, Threshold: 50}
	if p95.violated(&sloWin{n: 20, over: 1}) {
		t.Error("p95: 1/20 over (exactly 5%) must still meet")
	}
	if !p95.violated(&sloWin{n: 20, over: 2}) {
		t.Error("p95: 2/20 over must violate")
	}
	p99 := SLOSpec{Metric: SLOP99RTTMs, Threshold: 50}
	if p99.violated(&sloWin{n: 100, over: 1}) || !p99.violated(&sloWin{n: 100, over: 2}) {
		t.Error("p99 boundary: 1/100 meets, 2/100 violates")
	}
	mean := SLOSpec{Metric: SLOMeanRTTMs, Threshold: 45}
	if mean.violated(&sloWin{n: 2, sum: 90}) || !mean.violated(&sloWin{n: 2, sum: 91}) {
		t.Error("mean boundary: 45 meets, 45.5 violates")
	}
	if p95.violated(&sloWin{}) {
		t.Error("empty window must not violate")
	}
}

// sloTrace binds flow 0 to "lat" and flow 1 to "thr", then builds three
// 1 s windows with known outcomes:
//
//	window 0: flow 0 sees 20 RTTs at 40 ms (p95+mean met); flow 1
//	          enqueues 150 kB (1.2 Mbit/s, floor met)
//	window 1: flow 0 sees 18×40 ms + 2×60 ms (10% over 50 → p95
//	          violated; mean 42 still met); flow 1 enqueues 51 kB
//	          (0.408 Mbit/s, floor violated)
//	window 2: only flow 0 sends, so the floor spec counts the window
//	          against "thr"; no RTT samples → RTT windows skip it
func sloTrace(sink telemetry.Tracer) {
	ms := func(n int64) int64 { return n * int64(time.Millisecond) }
	emit := func(e telemetry.Event) { sink.Emit(&e) }
	emit(telemetry.Event{T: 1, Type: telemetry.TypeProfile, Flow: 0, Name: "lat"})
	emit(telemetry.Event{T: 2, Type: telemetry.TypeProfile, Flow: 1, Name: "thr"})
	for i := int64(0); i < 20; i++ {
		emit(telemetry.Event{T: ms(10 + i*40), Type: telemetry.TypeDecision, Flow: 0,
			Winner: "x_prev", XPrev: 2e6, UPrev: 1, RTT: ms(40)})
	}
	for i := int64(0); i < 100; i++ {
		emit(telemetry.Event{T: ms(i * 9), Type: telemetry.TypeEnqueue, Flow: 1,
			Seq: i, Bytes: 1500, Queue: 1500})
	}
	for i := int64(0); i < 20; i++ {
		rtt := ms(40)
		if i >= 18 {
			rtt = ms(60)
		}
		emit(telemetry.Event{T: ms(1010 + i*38), Type: telemetry.TypeDecision, Flow: 0,
			Winner: "x_prev", XPrev: 2e6, UPrev: 1, RTT: rtt})
	}
	for i := int64(0); i < 34; i++ {
		emit(telemetry.Event{T: ms(1000 + i*9), Type: telemetry.TypeEnqueue, Flow: 1,
			Seq: 100 + i, Bytes: 1500, Queue: 1500})
	}
	emit(telemetry.Event{T: ms(2100), Type: telemetry.TypeEnqueue, Flow: 0,
		Seq: 0, Bytes: 1500, Queue: 1500})
}

func sloTestConfig() Config {
	return Config{SLOs: []SLOSpec{
		{Profile: "lat", Metric: SLOP95RTTMs, Op: "<=", Threshold: 50},
		{Profile: "lat", Metric: SLOMeanRTTMs, Op: "<=", Threshold: 45},
		{Profile: "thr", Metric: SLOMeanThrMbps, Op: ">=", Threshold: 1},
		{Profile: "ghost", Metric: SLOP95RTTMs, Op: "<=", Threshold: 10},
	}}
}

// The run reads the same whether its scenario span end closes it or the
// stream leaves it open.
func TestSLOAttainment(t *testing.T) {
	for _, closed := range []bool{false, true} {
		a := New(sloTestConfig())
		sloTrace(a)
		if closed {
			a.Emit(&telemetry.Event{T: int64(2100 * time.Millisecond), Type: telemetry.TypeSpan,
				Flow: -1, Reason: telemetry.SpanEnd, Name: "scenario:slo"})
		}
		a.Finalize()
		r := a.Report()

		if len(r.SLOs) != 3 {
			t.Fatalf("closed=%v: SLO reports = %d (%+v), want 3 (ghost profile absent from stream)", closed, len(r.SLOs), r.SLOs)
		}
		check := func(i int, windows, met int, attain, firstMs float64) {
			t.Helper()
			s := r.SLOs[i]
			if s.Windows != windows || s.Met != met {
				t.Errorf("closed=%v: %s: windows/met = %d/%d, want %d/%d", closed, s.Spec, s.Windows, s.Met, windows, met)
			}
			if math.Abs(s.Attainment-attain) > 1e-9 {
				t.Errorf("closed=%v: %s: attainment = %v, want %v", closed, s.Spec, s.Attainment, attain)
			}
			if s.FirstViolationMs != firstMs {
				t.Errorf("closed=%v: %s: first violation = %v ms, want %v", closed, s.Spec, s.FirstViolationMs, firstMs)
			}
		}
		check(0, 2, 1, 0.5, 1000)   // p95: window 1 violates
		check(1, 2, 2, 1, -1)       // mean RTT holds everywhere
		check(2, 3, 1, 1.0/3, 1000) // floor: windows 1 and 2 violate

		if len(r.Profiles) != 2 || r.Profiles[0].Profile != "lat" || r.Profiles[1].Profile != "thr" {
			t.Fatalf("closed=%v: profiles = %+v, want [lat thr]", closed, r.Profiles)
		}
		if got := r.Profiles[0].Flows; len(got) != 1 || got[0] != 0 {
			t.Errorf("closed=%v: lat flows = %v, want [0]", closed, got)
		}
		// flow 1 sent 201 kB over the 2.1 s span = ~0.766 Mbit/s.
		if want := 201000 * 8.0 / 1e6 / 2.1; math.Abs(r.Profiles[1].MeanThrMbps-want) > 1e-9 {
			t.Errorf("closed=%v: thr mean throughput = %v, want %v", closed, r.Profiles[1].MeanThrMbps, want)
		}
		if r.ProfileFairness == nil || r.ProfileFairness.Profiles != 2 ||
			r.ProfileFairness.Jain <= 0 || r.ProfileFairness.Jain > 1 {
			t.Errorf("closed=%v: profile fairness = %+v, want 2 profiles with Jain in (0,1]", closed, r.ProfileFairness)
		}
	}
}

// Profile binding, SLO windows, and profile fairness must all survive
// flow-disjoint sharding + merge byte-for-byte, like the rest of the
// report (the sweep engine's determinism contract).
func TestSLOMergeMatchesSinglePass(t *testing.T) {
	single := New(sloTestConfig())
	sloTrace(single)
	single.Finalize()

	shards := []*Analyzer{New(sloTestConfig()), New(sloTestConfig()), New(sloTestConfig())}
	var router shardRouter
	router.route = func(e *telemetry.Event) int {
		if e.Flow < 0 {
			return 2
		}
		return e.Flow % 2
	}
	router.shards = shards
	sloTrace(&router)
	merged := New(sloTestConfig())
	for _, s := range shards {
		s.Finalize()
		merged.Merge(s)
	}

	var a, b bytes.Buffer
	if err := single.Report().WriteText(&a); err != nil {
		t.Fatal(err)
	}
	if err := merged.Report().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("merged report differs from single-pass:\n--- single ---\n%s\n--- merged ---\n%s", a.String(), b.String())
	}

	var aj, bj bytes.Buffer
	if err := single.Report().WriteJSON(&aj); err != nil {
		t.Fatal(err)
	}
	if err := merged.Report().WriteJSON(&bj); err != nil {
		t.Fatal(err)
	}
	if aj.String() != bj.String() {
		t.Fatal("merged JSON report differs from single-pass")
	}
}
