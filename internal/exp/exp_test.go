package exp

import (
	"libra/internal/netem"
	"libra/internal/rlcc"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig1", "fig2a", "fig2b", "fig2c", "fig5", "fig6", "fig7", "fig8",
		"fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
		"fig16", "fig17", "fig18", "fig19", "tab2", "tab3", "tab4",
		"tab6", "tab7",
		"abl-order", "abl-classics", "sec7-networks", "sec7-datacenter",
		"app-mix", "aqm", "figa1",
	}
	for _, id := range want {
		e, ok := Get(id)
		if !ok {
			t.Errorf("experiment %s not registered", id)
			continue
		}
		if e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Errorf("experiment %s incomplete: %+v", id, e)
		}
	}
	if len(All()) < len(want) {
		t.Errorf("registry has %d experiments, want >= %d", len(All()), len(want))
	}
}

func TestGetUnknown(t *testing.T) {
	if _, ok := Get("fig99"); ok {
		t.Fatal("unknown experiment found")
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Register(Experiment{ID: "fig1"})
}

func TestTableRendering(t *testing.T) {
	tbl := Table{Name: "x", Cols: []string{"a", "bb"}}
	tbl.AddRow("1", "2")
	tbl.AddRow("333", "4")
	out := tbl.String()
	if !strings.Contains(out, "-- x --") || !strings.Contains(out, "333") {
		t.Fatalf("render: %q", out)
	}
	r := Report{ID: "id", Title: "t", Tables: []Table{tbl}, Notes: []string{"n"}}
	if !strings.Contains(r.String(), "note: n") {
		t.Fatal("notes missing")
	}
}

func TestScenarioBuilders(t *testing.T) {
	ws := WiredScenarios(10*time.Second, 24, 48)
	if len(ws) != 2 || ws[0].Name != "Wired-24Mbps" {
		t.Fatalf("wired scenarios %+v", ws)
	}
	if len(WiredScenarios(time.Second)) != 4 {
		t.Fatal("default wired set should have 4 entries")
	}
	ls := LTEScenarios(10*time.Second, 1)
	if len(ls) != 4 {
		t.Fatalf("LTE scenarios %d", len(ls))
	}
}

func TestMakerForAllCCAs(t *testing.T) {
	for _, name := range CCASet {
		mk, err := MakerFor(name, nil, nil)
		if err != nil {
			t.Fatalf("maker for %s: %v", name, err)
		}
		c := mk(1)
		if c == nil {
			t.Fatalf("maker for %s returned nil", name)
		}
	}
}

func TestMakerForUnknownName(t *testing.T) {
	mk, err := MakerFor("no-such-cca", nil, nil)
	if mk != nil || err == nil {
		t.Fatalf("want nil maker + error, got %v, %v", mk, err)
	}
	for _, name := range []string{"cubic", "c-libra", "bbr"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %s", err, name)
		}
	}
}

func TestRunFlowAndRepeat(t *testing.T) {
	s := WiredScenarios(3*time.Second, 12)[0]
	rc := NewRunContext(1)
	m := rc.RunFlow(s, CCAMaker("cubic", nil)(rc), 0)
	if m.ThrMbps <= 0 || m.Util <= 0 {
		t.Fatalf("metrics %+v", m)
	}
	ms := rc.Repeat(s, CCAMaker("cubic", nil), 2)
	if len(ms) != 2 {
		t.Fatal("repeat count")
	}
}

func TestAgentSetSaveLoad(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "models")
	set := TrainAgentSet(TrainSpec{Seed: 1, Episodes: 2, EpisodeLen: 2 * time.Second,
		Env: rlcc.LaptopEnvRange()})
	if err := set.Save(dir); err != nil {
		t.Fatal(err)
	}
	files, _ := os.ReadDir(dir)
	if len(files) != 8 { // 4 actor models + 4 normalisers
		t.Fatalf("saved %d files, want 8", len(files))
	}
	loaded, err := LoadAgentSet(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Loaded actor must reproduce the trained actor's outputs.
	obs := make([]float64, 20)
	a := set.LibraRL.Policy.Mean(obs)[0]
	b := loaded.LibraRL.Policy.Mean(obs)[0]
	if a != b {
		t.Fatalf("loaded policy diverges: %v vs %v", a, b)
	}
}

// fig16 divides every delay by the lowest. A starved flow (failed, or
// no RTT sample) reads a zero delay, which as the lowest would turn
// every norm.delay cell infinite: it must be left out of the minimum
// and read "-", with every other cell finite and normalised over the
// fed flows.
func TestWanTableSkipsStarvedFlows(t *testing.T) {
	flow := func(thr, rttMs float64, samples int64) Metrics {
		f := &netem.Flow{}
		f.Stats.RTTCount = samples
		return Metrics{ThrMbps: thr, DelayMs: rttMs, LossRate: 0.01, Flow: f}
	}
	ccas := []string{"fed-low", "fed-high", "no-rtt", "failed"}
	ms := []Metrics{flow(40, 200, 10), flow(20, 300, 10), flow(0, 0, 0), {Failed: true}}
	tbl, starved := wanTable("inter-continental", ccas, ms)
	if starved != 2 {
		t.Errorf("starved = %d, want 2", starved)
	}
	want := [][]string{
		{"fed-low", "1.000", "1.000", "0.0100"},
		{"fed-high", "0.500", "1.500", "0.0100"},
		{"no-rtt", "0.000", "-", "0.0100"},
		{"failed", "0.000", "-", "0.0000"},
	}
	if !reflect.DeepEqual(tbl.Rows, want) {
		t.Errorf("rows %v, want %v", tbl.Rows, want)
	}
}

// A flow with no RTT sample has AvgRTT 0: sec7-datacenter must leave it
// out of the delay average (and print '-' when a CCA has no sampled flow
// at all) rather than read starvation as low delay. The rule it shares
// with every avg-delay column leaves a failed run out too.
func TestSec7TableSkipsStarvedFlows(t *testing.T) {
	flow := func(rttMs float64, samples int64) Metrics {
		f := &netem.Flow{}
		f.Stats.RTTCount = samples
		f.Stats.RTTSum = time.Duration(rttMs*float64(samples)) * time.Millisecond
		f.Stats.AckedBytes = 1000 * samples
		f.Stats.Active = time.Second
		return Metrics{Util: 0.9, DelayMs: float64(f.Stats.AvgRTT()) / float64(time.Millisecond), Flow: f}
	}
	ccas := []string{"fed", "one-starved", "all-starved"}
	rs := [][]Metrics{
		{flow(2, 10), flow(4, 10)},
		{flow(2, 10), flow(0, 0)},
		{flow(0, 0), flow(0, 0)},
	}
	tbl, starved := sec7Table(ccas, rs)
	if starved != 3 {
		t.Errorf("starved = %d, want 3", starved)
	}
	for i, want := range []string{"3.00", "2.00", "-"} {
		if got := tbl.Rows[i][2]; got != want {
			t.Errorf("%s: avg delay %q, want %q", ccas[i], got, want)
		}
	}
	var d delayMean
	for _, m := range []Metrics{flow(2, 10), {Failed: true}, flow(0, 0)} {
		d.add(m)
	}
	if got := d.format(2); got != "2.00" || d.starved != 2 {
		t.Errorf("sampled, failed and starved flows: avg delay %q with %d starved, want \"2.00\" with 2", got, d.starved)
	}
}
