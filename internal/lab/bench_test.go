package lab

import (
	"os"
	"runtime"
	"testing"
	"time"

	"libra/internal/exp"
	"libra/internal/netem/faults"
	"libra/internal/utility"
)

// TestBenchLab measures adversarial-lab evaluation throughput — how
// many 4-second fault scenarios the pool scores per wall-clock second.
// It only arms when LAB_BENCH is set (make bench-lab); with
// LAB_BENCH_GUARD it additionally enforces a conservative floor so a
// hot-path regression fails CI instead of just drifting the number.
// Tracked timings come from the repository benchmark (bash
// benchmark/run.sh: lab-traced's lab.evals_per_s).
func TestBenchLab(t *testing.T) {
	if os.Getenv("LAB_BENCH") == "" {
		t.Skip("set LAB_BENCH=1 (make bench-lab) to measure lab scenario throughput")
	}

	const scenarios = 64
	u := utility.Default()
	suite := func() time.Duration {
		rc := exp.NewRunContext(1)
		rc.Workers = runtime.GOMAXPROCS(0)
		base := DefaultSpec("cubic", 1, 4)
		names := faults.PresetNames()
		start := time.Now()
		exp.Sweep(rc, scenarios, func(jc *exp.RunContext, i int) Outcome {
			sp := base
			sp.Label = "bench"
			sp.Plan, _ = faults.Preset(names[i%len(names)])
			return Eval(jc, sp, u)
		})
		return time.Since(start)
	}

	suite() // warm-up: page in code, steady-state the heap
	elapsed := suite()
	perSec := scenarios / elapsed.Seconds()

	t.Logf("cores=%d scenarios=%d wall=%.2fs -> %.1f scenarios/sec",
		runtime.GOMAXPROCS(0), scenarios, elapsed.Seconds(), perSec)

	if os.Getenv("LAB_BENCH_GUARD") != "" && perSec < 2 {
		t.Fatalf("lab throughput %.2f scenarios/sec under the 2/sec floor", perSec)
	}
}
