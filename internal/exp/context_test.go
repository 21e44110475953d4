package exp

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"libra/internal/rlcc"
	"libra/internal/telemetry"
)

// fakeTrain installs a counting train seam that returns distinct empty
// agent sets, so cache behaviour is observable without real training.
func fakeTrain(calls *[]int64) func(int64) *AgentSet {
	return func(seed int64) *AgentSet {
		*calls = append(*calls, seed)
		return &AgentSet{}
	}
}

// Regression for the old sync.Once lazy-agent bug: the first caller's
// seed trained the one shared set and every later run silently reused
// it. Lazy sets are now cached per seed.
func TestLazyAgentsCachedPerSeed(t *testing.T) {
	var calls []int64
	rc5 := &RunContext{Seed: 5, train: fakeTrain(&calls)}
	rc5.WithDefaults()
	a5 := rc5.agents()

	// A second context with a different seed but the shared cache (as
	// Sweep children and repeated harness entries have) must train its
	// own set, not reuse seed 5's.
	rc9 := &RunContext{Seed: 9, cache: rc5.cache, train: rc5.train}
	a9 := rc9.agents()
	if a5 == a9 {
		t.Fatal("different seeds shared one lazily-trained agent set")
	}
	if len(calls) != 2 || calls[0] != 5 || calls[1] != 9 {
		t.Fatalf("train calls = %v, want [5 9]", calls)
	}

	// Same seed again: cache hit, no retraining.
	rc5b := &RunContext{Seed: 5, cache: rc5.cache, train: rc5.train}
	if rc5b.agents() != a5 {
		t.Fatal("seed-5 cache miss on second lookup")
	}
	if rc5.agents() != a5 {
		t.Fatal("agents() not stable on one context")
	}
	if len(calls) != 2 {
		t.Fatalf("train ran %d times, want 2", len(calls))
	}
}

// untrained builds the named controller over fresh, untrained policies,
// for tests that run a learning controller without training an agent
// set.
func untrained(name string) Maker {
	mk, err := MakerFor(name, nil, nil)
	if err != nil {
		panic(err)
	}
	return mk
}

func tinyAgents(t *testing.T) *AgentSet {
	t.Helper()
	return TrainAgentSet(TrainSpec{Seed: 1, Episodes: 2, EpisodeLen: 2 * time.Second,
		Env: rlcc.LaptopEnvRange()})
}

// Sweep jobs must work on private agent clones: learning CCAs mutate
// normaliser statistics and draw from the policy RNG at inference, so
// sharing the parent's set across concurrent jobs would race.
func TestSweepJobsCloneAgents(t *testing.T) {
	base := tinyAgents(t)
	rc := NewRunContext(1)
	rc.Agents = base

	sets := Sweep(rc, 3, func(jc *RunContext, i int) *AgentSet {
		a := jc.agents()
		if a2 := jc.agents(); a2 != a {
			t.Error("job agent set not cached within the job")
		}
		return a
	})
	seen := map[*AgentSet]bool{base: true}
	for i, a := range sets {
		if a == nil || a.LibraRL == nil || a.LibraNorm == nil {
			t.Fatalf("job %d: clone lost agents: %+v", i, a)
		}
		if seen[a] {
			t.Fatalf("job %d shares an agent set with another job or the parent", i)
		}
		seen[a] = true
		if a.LibraRL == base.LibraRL || a.LibraNorm == base.LibraNorm {
			t.Fatalf("job %d: clone aliases parent policy state", i)
		}
		// The clone must still compute the same policy outputs.
		obs := make([]float64, 20)
		if got, want := a.LibraRL.Policy.Mean(obs)[0], base.LibraRL.Policy.Mean(obs)[0]; got != want {
			t.Fatalf("job %d: cloned policy diverges: %v vs %v", i, got, want)
		}
	}
}

// Reseed repoints a context at an explicit seed and must drop the
// cached per-job agent clone (it was cloned for the old seed). The lab
// leans on this: every candidate in a sweep batch evaluates at its own
// recorded seed, so results depend on the scenario, not the job index.
func TestReseedDropsJobAgentClone(t *testing.T) {
	base := tinyAgents(t)
	rc := NewRunContext(1)
	rc.Agents = base

	Sweep(rc, 1, func(jc *RunContext, i int) struct{} {
		a := jc.agents()
		jc.Reseed(77)
		if jc.Seed != 77 {
			t.Errorf("Reseed left Seed = %d", jc.Seed)
		}
		if b := jc.agents(); b == a {
			t.Error("Reseed kept the old seed's agent clone")
		}
		return struct{}{}
	})

	// Jobs reseeded to one shared seed must produce identical runs
	// regardless of their position in the batch.
	s := WiredScenarios(2*time.Second, 12)[0]
	ms := Sweep(rc, 3, func(jc *RunContext, i int) Metrics {
		jc.Reseed(77)
		return jc.RunFlow(s, CCAMaker("cubic", nil)(jc), 0)
	})
	for i := 1; i < len(ms); i++ {
		if ms[i].Util != ms[0].Util || ms[i].ThrMbps != ms[0].ThrMbps {
			t.Fatalf("job %d diverged from job 0 at shared seed: %+v vs %+v", i, ms[i], ms[0])
		}
	}
}

// miniSuite is a small classic-CCA grid used by the determinism tests:
// every output is simulation-derived (no wall-clock CPU numbers).
func miniSuite(workers int, seed int64, tracer telemetry.Tracer) (string, telemetry.Snapshot) {
	rc := NewRunContext(seed)
	rc.Workers = workers
	rc.Tracer = tracer
	ccas := []string{"cubic", "bbr", "reno", "vegas"}
	s := WiredScenarios(2*time.Second, 12)[0]
	const reps = 2
	ms := Sweep(rc, len(ccas)*reps, func(jc *RunContext, i int) Metrics {
		return jc.RunFlow(s, CCAMaker(ccas[i/reps], nil)(jc), 0)
	})
	tbl := Table{Name: "mini", Cols: []string{"cca", "rep", "util", "thr", "delay", "loss"}}
	for i, m := range ms {
		tbl.AddRow(ccas[i/reps], fmtF(float64(i%reps), 0),
			fmtF(m.Util, 4), fmtF(m.ThrMbps, 3), fmtF(m.DelayMs, 2), fmtF(m.LossRate, 5))
	}
	rep := Report{ID: "mini", Title: "determinism suite", Tables: []Table{tbl}}
	return rep.String(), rc.Metrics.Snapshot()
}

// stripWallClock removes the one inherently wall-clock-derived metric
// (controller compute time) from a snapshot before comparison.
func stripWallClock(s telemetry.Snapshot) telemetry.Snapshot {
	delete(s.Histograms, "libra_flow_cpu_frac")
	return s
}

// The tentpole guarantee: identical rendered report, merged metrics
// snapshot, and telemetry event stream at any worker count.
func TestSweepEquivalentAcrossWorkerCounts(t *testing.T) {
	var refTrace bytes.Buffer
	refRec := telemetry.NewRecorder(&refTrace)
	refRep, refSnap := miniSuite(1, 7, refRec)
	if err := refRec.Close(); err != nil {
		t.Fatal(err)
	}
	refSnap = stripWallClock(refSnap)
	if refSnap.Counters["libra_flows_total"] != 8 {
		t.Fatalf("suite recorded %d flows, want 8", refSnap.Counters["libra_flows_total"])
	}

	for _, workers := range []int{4, 8} {
		var tr bytes.Buffer
		rec := telemetry.NewRecorder(&tr)
		rep, snap := miniSuite(workers, 7, rec)
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		if rep != refRep {
			t.Errorf("workers=%d: rendered report differs from serial run\n--- serial ---\n%s\n--- parallel ---\n%s",
				workers, refRep, rep)
		}
		if !reflect.DeepEqual(stripWallClock(snap), refSnap) {
			t.Errorf("workers=%d: merged metrics snapshot differs from serial run", workers)
		}
		if tr.String() != refTrace.String() {
			t.Errorf("workers=%d: telemetry event stream differs from serial run (%d vs %d bytes)",
				workers, tr.Len(), refTrace.Len())
		}
	}
}

// Two identical invocations must render byte-identical reports (no map
// iteration order leaking into tables).
func TestReportByteDeterminismAcrossRuns(t *testing.T) {
	a, _ := miniSuite(4, 3, nil)
	b, _ := miniSuite(4, 3, nil)
	if a != b {
		t.Fatalf("two identical runs rendered different reports:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}

// The learning path stays deterministic too: cloned agents are reseeded
// from the job seed, so RL-backed runs give the same results at any
// worker count.
func TestSweepRLPathEquivalence(t *testing.T) {
	agents := tinyAgents(t)
	run := func(workers int) []float64 {
		rc := NewRunContext(11)
		rc.Workers = workers
		rc.Agents = agents
		s := WiredScenarios(2*time.Second, 12)[0]
		return Sweep(rc, 4, func(jc *RunContext, i int) float64 {
			return jc.RunFlow(s, CCAMaker("c-libra", nil)(jc), 0).ThrMbps
		})
	}
	serial := run(1)
	parallel := run(4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("RL-backed sweep differs: serial %v vs parallel %v", serial, parallel)
	}
}

// Repeat is Sweep-backed: per-rep results must be independent of worker
// count and reps must not all collapse onto one seed.
func TestRepeatParallelEquivalence(t *testing.T) {
	s := WiredScenarios(2*time.Second, 12)[0]
	run := func(workers int) []Metrics {
		rc := NewRunContext(2)
		rc.Workers = workers
		return rc.Repeat(s, CCAMaker("cubic", nil), 3)
	}
	a, b := run(1), run(4)
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("rep counts %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i].ThrMbps != b[i].ThrMbps || a[i].Util != b[i].Util {
			t.Fatalf("rep %d differs across worker counts: %+v vs %+v", i, a[i], b[i])
		}
	}
}
