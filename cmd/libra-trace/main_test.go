package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"libra/internal/analyze"
	"libra/internal/exp"
	"libra/internal/netem"
	"libra/internal/telemetry"
	"libra/internal/trace"
)

// inspectTrace used to index tr.Rates[0] unconditionally, which panicked
// on traces that parse but yield no samples. Empty and comment-only
// inputs must produce a clear error instead.
func TestInspectEmptyTrace(t *testing.T) {
	for _, tc := range []struct {
		name  string
		input string
	}{
		{"empty", ""},
		{"headers-only", "# mahimahi link trace\n# generated 2026-08-05\n\n"},
		{"blank-lines", "\n\n\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("inspectTrace panicked: %v", r)
				}
			}()
			var out strings.Builder
			err := inspectTrace(strings.NewReader(tc.input), tc.name+".mahi", &out)
			if err == nil {
				t.Fatalf("want error for %s trace, got output:\n%s", tc.name, out.String())
			}
			if !strings.Contains(err.Error(), tc.name+".mahi") {
				t.Errorf("error should name the file: %v", err)
			}
		})
	}
}

// writeEventFiles records n short two-flow c-libra runs (distinct
// seeds) as JSONL event streams and returns their paths.
func writeEventFiles(t *testing.T, n int) []string {
	t.Helper()
	dir := t.TempDir()
	mk, err := exp.MakerFor("c-libra", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]string, n)
	for i := range paths {
		path := filepath.Join(dir, "run"+string(rune('a'+i))+".jsonl")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		rec := telemetry.NewRecorder(f)
		net := netem.New(netem.Config{
			Capacity:    trace.Constant(trace.Mbps(16)),
			MinRTT:      30 * time.Millisecond,
			BufferBytes: 60_000,
			Seed:        int64(11 + i),
			Tracer:      rec,
		})
		for fl := 0; fl < 2; fl++ {
			ctrl := mk(int64(5 + i*2 + fl))
			ctrl.(telemetry.Traceable).SetTracer(rec, fl)
			net.AddFlow(ctrl, 0, 0)
		}
		net.Run(4 * time.Second)
		if err := rec.Close(); err != nil { // also closes the file
			t.Fatal(err)
		}
		paths[i] = path
	}
	return paths
}

// TestAnalyzeParallelDeterminism is the end-to-end contract of the
// analyze subcommand: on real simulator traces, the text and JSON
// reports are byte-identical at -parallel 1 vs 4 and across two runs
// at the same worker count.
func TestAnalyzeParallelDeterminism(t *testing.T) {
	paths := writeEventFiles(t, 4)
	cfg := analyze.Config{Window: time.Second}

	render := func(workers int) (string, string) {
		t.Helper()
		rep, err := analyzeFiles(paths, cfg, workers)
		if err != nil {
			t.Fatalf("analyzeFiles(workers=%d): %v", workers, err)
		}
		var txt, js bytes.Buffer
		if err := rep.WriteText(&txt); err != nil {
			t.Fatal(err)
		}
		if err := rep.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		return txt.String(), js.String()
	}

	txt1, js1 := render(1)
	txt4, js4 := render(4)
	if txt1 != txt4 {
		t.Errorf("text report differs between -parallel 1 and 4:\n--- 1 ---\n%s\n--- 4 ---\n%s", txt1, txt4)
	}
	if js1 != js4 {
		t.Error("JSON report differs between -parallel 1 and 4")
	}
	txtAgain, jsAgain := render(4)
	if txtAgain != txt4 || jsAgain != js4 {
		t.Error("report differs across two identical runs")
	}

	// The report must actually cover the runs: both flow ids, cycles
	// decided, winner shares summing to 1, and rate quantiles present.
	var rep analyze.Report
	if err := json.Unmarshal([]byte(js1), &rep); err != nil {
		t.Fatalf("JSON report does not parse: %v", err)
	}
	if len(rep.Flows) != 2 {
		t.Fatalf("report covers %d flows, want 2", len(rep.Flows))
	}
	for _, fr := range rep.Flows {
		if fr.Cycles == 0 || fr.Decided == 0 {
			t.Errorf("flow %d has cycles=%d decided=%d, want > 0", fr.ID, fr.Cycles, fr.Decided)
		}
		var share float64
		for _, ws := range fr.Winners {
			share += ws.Share
		}
		if share < 0.999 || share > 1.001 {
			t.Errorf("flow %d winner shares sum to %v, want 1", fr.ID, share)
		}
		if fr.RateMbps.N == 0 || fr.Decomp.Cycles == 0 {
			t.Errorf("flow %d missing rate quantiles (n=%d) or utility decomposition (cycles=%d)",
				fr.ID, fr.RateMbps.N, fr.Decomp.Cycles)
		}
	}
	if !strings.Contains(txt1, "fairness (2 flows") {
		t.Errorf("text report missing fairness section:\n%s", txt1)
	}
}

func TestInspectValidTrace(t *testing.T) {
	// Three delivery opportunities inside 100 ms bins at 0, 100, 250 ms.
	in := "# comment\n0\n100\n250\n"
	var out strings.Builder
	if err := inspectTrace(strings.NewReader(in), "ok.mahi", &out); err != nil {
		t.Fatalf("inspectTrace: %v", err)
	}
	got := out.String()
	for _, want := range []string{"duration:", "samples:", "mean:", "min/max:", "p50/p95/p99:"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}
