package lab

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"

	"libra/internal/exp"
	"libra/internal/netem/faults"
	"libra/internal/utility"
)

func TestSpecFileRoundTrip(t *testing.T) {
	plan, _ := faults.Preset("blackout")
	sp := Spec{
		Target: "cubic", Label: "worst:cubic", Seed: 12345,
		CapMbps: 24, DipFrac: 0.5, PeriodS: 4, RTTMs: 40, Cross: 1, DurS: 4,
		Plan: plan,
	}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := sp.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSpecFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sp, back) {
		t.Fatalf("spec file round-trip changed the spec:\n  %+v\n  %+v", sp, back)
	}
	// The artifact itself must be byte-stable: writing what we read
	// back reproduces the file.
	b1, _ := json.MarshalIndent(sp, "", "  ")
	b2, _ := json.MarshalIndent(back, "", "  ")
	if !bytes.Equal(b1, b2) {
		t.Fatal("re-marshalled spec differs")
	}
}

func TestSpecValidateRejects(t *testing.T) {
	good := DefaultSpec("cubic", 1, 4)
	if err := good.Validate(); err != nil {
		t.Fatalf("default spec invalid: %v", err)
	}
	for name, mut := range map[string]func(*Spec){
		"no target":      func(s *Spec) { s.Target = "" },
		"unknown target": func(s *Spec) { s.Target = "nope" },
		"zero capacity":  func(s *Spec) { s.CapMbps = 0 },
		"bad dip":        func(s *Spec) { s.DipFrac = 1.5 },
		"neg period":     func(s *Spec) { s.PeriodS = -1 },
		"neg rtt":        func(s *Spec) { s.RTTMs = -1 },
		"neg cross":      func(s *Spec) { s.Cross = -1 },
		"zero duration":  func(s *Spec) { s.DurS = 0 },
		"bad plan":       func(s *Spec) { s.Plan = &faults.Plan{Blackouts: &faults.Blackouts{}} },
		"unknown topo":   func(s *Spec) { s.Topo = "moebius-strip" },
		"bad cross_at":   func(s *Spec) { s.CrossAt = 1.5 },
	} {
		sp := good
		mut(&sp)
		if sp.Validate() == nil {
			t.Errorf("%s: Validate accepted %+v", name, sp)
		}
	}
}

// TestSpecVectorRoundTrip: decoding a combined vector and re-encoding
// is the identity, so coordinate descent moves exactly the knob it
// perturbs.
func TestSpecVectorRoundTrip(t *testing.T) {
	base := DefaultSpec("cubic", 9, 4)
	knobs := Knobs()
	if want := 7 + len(faults.PlanKnobs()); len(knobs) != want {
		t.Fatalf("combined knob space has %d dims, want %d", len(knobs), want)
	}
	hostile, _ := faults.Preset("hostile")
	withPlan := base
	withPlan.Plan = hostile
	withTopo := base
	withTopo.Topo = "parking-lot"
	withTopo.Cross = 2
	withTopo.CrossAt = 0.5
	for _, sp := range []Spec{base, withPlan, withTopo} {
		dec := sp.FromVector(sp.Vector())
		if err := dec.Validate(); err != nil {
			t.Fatalf("decoded spec invalid: %v", err)
		}
		again := dec.FromVector(dec.Vector())
		if !reflect.DeepEqual(dec, again) {
			t.Fatalf("vector round-trip changed spec:\n  %+v\n  %+v", dec, again)
		}
	}
}

// TestEvalDeterministic: the same spec evaluated twice — and from
// different sweep job slots — produces the identical outcome.
func TestEvalDeterministic(t *testing.T) {
	sp := DefaultSpec("cubic", 777, 3)
	sp.Plan, _ = faults.Preset("bursty")
	u := utility.Default()
	rc := exp.NewRunContext(1)
	outs := exp.Sweep(rc, 3, func(jc *exp.RunContext, i int) Outcome {
		return Eval(jc, sp, u)
	})
	for i := 1; i < len(outs); i++ {
		if outs[i].Score != outs[0].Score || outs[i].ThrMbps != outs[0].ThrMbps {
			t.Fatalf("job %d diverged: %+v vs %+v", i, outs[i], outs[0])
		}
	}
	if outs[0].Failed || outs[0].Score == FailScore {
		t.Fatalf("healthy eval reported failure: %+v", outs[0])
	}
}

// TestEvalFaultsHurt: a mid-run blackout must score strictly below the
// clean link — the objective actually sees the injected faults.
func TestEvalFaultsHurt(t *testing.T) {
	u := utility.Default()
	rc := exp.NewRunContext(2)
	clean := DefaultSpec("cubic", 42, 4)
	dark := clean
	dark.Label = "dark"
	dark.Plan = &faults.Plan{Blackouts: &faults.Blackouts{
		Scheduled: []faults.Window{{Start: faults.Duration(500 * 1e6), Dur: faults.Duration(3 * 1e9)}},
	}}
	cOut := Eval(rc, clean, u)
	dOut := Eval(rc, dark, u)
	if !(dOut.Score < cOut.Score) {
		t.Fatalf("blackout did not hurt: clean %.3f vs dark %.3f", cOut.Score, dOut.Score)
	}
}

// TestEvalTopology: a spec with a topology preset evaluates cleanly,
// deterministically, and actually routes through the multi-hop engine
// (cross flows placed by cross_at, not as extra bottleneck makers).
func TestEvalTopology(t *testing.T) {
	sp := DefaultSpec("cubic", 99, 3)
	sp.Topo = "parking-lot"
	sp.Cross = 1
	sp.CrossAt = 1
	u := utility.Default()
	a := Eval(exp.NewRunContext(4), sp, u)
	b := Eval(exp.NewRunContext(4), sp, u)
	if a.Failed || a.Score == FailScore {
		t.Fatalf("topo eval failed: %+v", a)
	}
	if a.Score != b.Score || a.ThrMbps != b.ThrMbps {
		t.Fatalf("topo eval not deterministic: %+v vs %+v", a, b)
	}
	if a.ThrMbps <= 0 || a.ThrMbps > sp.CapMbps+1 {
		t.Fatalf("topo eval throughput %.2f Mbps out of range", a.ThrMbps)
	}
}

func TestEvalInvalidSpecFails(t *testing.T) {
	rc := exp.NewRunContext(3)
	out := Eval(rc, Spec{Target: "cubic"}, utility.Default())
	if !out.Failed || out.Score != FailScore {
		t.Fatalf("invalid spec evaluated: %+v", out)
	}
}

// TestSearchBeatsWorstPreset is the acceptance criterion: the search
// must discover a scenario scoring strictly below the worst stock
// preset for the target.
func TestSearchBeatsWorstPreset(t *testing.T) {
	rc := exp.NewRunContext(5)
	rc.Workers = 4
	sr, err := Search(rc, SearchConfig{Target: "cubic", Seed: 11, Budget: 60, DurS: 4})
	if err != nil {
		t.Fatal(err)
	}
	worst := sr.Presets[0].Score
	for _, o := range sr.Presets[1:] {
		if o.Score < worst {
			worst = o.Score
		}
	}
	if !(sr.Best.Score < worst) {
		t.Fatalf("search best %.4f did not beat worst preset %.4f (%s)",
			sr.Best.Score, worst, sr.WorstPreset)
	}
	if err := sr.Best.Spec.Validate(); err != nil {
		t.Fatalf("discovered worst case does not validate: %v", err)
	}
	if sr.Evals > 60 {
		t.Fatalf("search overspent its budget: %d evals", sr.Evals)
	}
	if n := rc.Metrics.Counter("libra_lab_evals_total", "").Value(); n != int64(sr.Evals) {
		t.Fatalf("libra_lab_evals_total = %d, want %d", n, sr.Evals)
	}
}

// TestSearchDeterministic: identical config → identical result,
// regardless of worker count.
func TestSearchDeterministic(t *testing.T) {
	run := func(workers int) *SearchResult {
		rc := exp.NewRunContext(5)
		rc.Workers = workers
		sr, err := Search(rc, SearchConfig{Target: "reno", Seed: 23, Budget: 16, DurS: 3})
		if err != nil {
			t.Fatal(err)
		}
		return sr
	}
	a, b, c := run(1), run(4), run(4)
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	cj, _ := json.Marshal(c)
	if !bytes.Equal(aj, bj) {
		t.Fatalf("search differs at workers 1 vs 4:\n%s\n%s", aj, bj)
	}
	if !bytes.Equal(bj, cj) {
		t.Fatal("search differs across repeated runs at the same seed")
	}
}
