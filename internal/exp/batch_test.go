package exp

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"libra/internal/rlcc"
	"libra/internal/telemetry"
)

// batchSuite sweeps a multi-flow learning grid — two aurora flows per
// run share one agent, so real inference cohorts form — and renders
// every simulation-derived output: the report, the merged metrics
// snapshot, and the telemetry event stream.
func batchSuite(t *testing.T, agents *AgentSet, workers int, noBatch bool) (string, telemetry.Snapshot, string, rlcc.BatchStats) {
	t.Helper()
	var buf bytes.Buffer
	rec := telemetry.NewRecorder(&buf)
	rc := NewRunContext(13)
	rc.Workers = workers
	rc.NoBatch = noBatch
	rc.Agents = agents
	rc.Tracer = rec
	s := WiredScenarios(3*time.Second, 24)[0]
	mss := Sweep(rc, 2, func(jc *RunContext, i int) []Metrics {
		mks := []Maker{
			CCAMaker("aurora", nil)(jc),
			CCAMaker("aurora", nil)(jc),
			CCAMaker("mod-rl", nil)(jc),
			CCAMaker("orca", nil)(jc),
		}
		return jc.RunFlows(s, mks, nil, 0)
	})
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	tbl := Table{Name: "batch-equiv", Cols: []string{"job", "flow", "util", "thr", "delay", "loss"}}
	for j, ms := range mss {
		for i, m := range ms {
			tbl.AddRow(fmtF(float64(j), 0), fmtF(float64(i), 0),
				fmtF(m.Util, 4), fmtF(m.ThrMbps, 3), fmtF(m.DelayMs, 2), fmtF(m.LossRate, 5))
		}
	}
	rep := Report{ID: "batch-equiv", Title: "batched vs unbatched", Tables: []Table{tbl}}
	return rep.String(), stripWallClock(rc.Metrics.Snapshot()), buf.String(), rc.Batch.Snapshot()
}

// The tentpole equivalence criterion: with the inference batcher on,
// reports, merged metrics, and the telemetry event stream are
// byte-identical to the unbatched run at any worker count — and the
// batcher really did serve multi-flow cohorts with single GEMMs.
func TestBatchedSweepEquivalence(t *testing.T) {
	agents := tinyAgents(t)
	refRep, refSnap, refTrace, refStats := batchSuite(t, agents, 1, true)
	if refStats != (rlcc.BatchStats{}) {
		t.Fatalf("NoBatch run recorded batcher work: %+v", refStats)
	}
	for _, workers := range []int{1, 4} {
		rep, snap, tr, stats := batchSuite(t, agents, workers, false)
		if rep != refRep {
			t.Errorf("workers=%d batched: report differs from unbatched run\n--- unbatched ---\n%s\n--- batched ---\n%s",
				workers, refRep, rep)
		}
		if !reflect.DeepEqual(snap, refSnap) {
			t.Errorf("workers=%d batched: merged metrics snapshot differs from unbatched run", workers)
		}
		if tr != refTrace {
			t.Errorf("workers=%d batched: telemetry event stream differs from unbatched run (%d vs %d bytes)",
				workers, len(tr), len(refTrace))
		}
		if stats.Batches == 0 || stats.MaxBatch < 2 {
			t.Errorf("workers=%d: no multi-flow cohorts were batched: %+v", workers, stats)
		}
	}
}
