// Command benchmark is the repository benchmark: it runs one named
// workload through the program's public entry points (exp.Sweep,
// RunFlow/RunFlows, lab.Tournament, agent load/train, the telemetry
// sinks) with two sweep workers, checks the outputs, and prints one
// JSON result line.
//
// Usage (from the repository root):
//
//	bash benchmark/run.sh --list
//	bash benchmark/run.sh --workload paper-quick --seed 1 --seconds 36 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics from a separate run that alternates untraced and
// traced passes and writes its spans to .bench_build/spans/. See
// benchmark/README.md for the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"libra/internal/exp"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	cpuProf  string
	// scratch holds flight dumps and the span file; tests point it at a
	// temporary directory.
	scratch string
	// size scales the timed inputs down for the self-tests; runs from
	// the command line always use the full inputs.
	size Size
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{scratch: ".bench_build"}
	list := fs.Bool("list", false, "list the workloads and every metric (name, unit, direction, bound), then exit")
	fs.StringVar(&o.workload, "workload", "", "workload to run")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: generates every input of the run")
	fs.Float64Var(&o.seconds, "seconds", 36, "length of the timed phase in seconds")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced passes")
	fs.StringVar(&o.cpuProf, "cpuprofile", "", "write a CPU profile of the timed phase to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		printCatalog(stdout)
		return 0
	}
	w, err := workloadByName(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintln(stderr, "benchmark: --trace must be 0 or 1")
		return 2
	}
	out, err := runWorkload(w, o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// Value is one reported metric.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's final output line.
type Result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// Set-up loads the shipped models, which takes about a millisecond. A
// run times setupSamples samples of setupBatch consecutive set-ups
// each, before the worker check, so every sample spans tens of
// milliseconds; setup_s is the median sample divided by setupBatch.
const (
	setupSamples = 15
	setupBatch   = 25
)

// runWorkload sets up, checks worker-count determinism on the small
// sub-plan, runs the timed passes and reduces them to the reported
// metrics. Every input comes from o.seed.
func runWorkload(w Workload, o options, log io.Writer) (*Result, error) {
	if err := checkCheckout(); err != nil {
		return nil, err
	}
	sp := newSpans()
	root := sp.begin(-1, "workload:"+w.Name)
	res := &Result{Correct: true, Metrics: map[string]Value{}}
	fail := func(format string, args ...any) {
		res.Correct = false
		fmt.Fprintf(log, "%s: "+format+"\n", append([]any{w.Name}, args...)...)
	}
	count := func(p *PassResult) {
		res.Attempted += p.Attempted
		res.Failed += p.Failed
		for _, why := range p.Why {
			fail("check failed: %s", why)
		}
	}

	// Set-up, several times; the last set serves the passes.
	var agents *exp.AgentSet
	setups := make([]float64, setupSamples)
	for i := range setups {
		id := sp.begin(root, "setup")
		t0 := time.Now()
		for k := 0; k < setupBatch; k++ {
			var err error
			if agents, err = setup(o.seed); err != nil {
				return nil, err
			}
		}
		setups[i] = time.Since(t0).Seconds() / setupBatch
		sp.end(id)
	}
	setupS := median(setups)
	fmt.Fprintf(log, "%s: setup median %.6fs over %d samples of %d set-ups\n", w.Name, setupS, setupSamples, setupBatch)

	// Worker-count determinism, outside the timed phase: the small
	// sub-plan must give identical outputs at 1 and 2 workers.
	id := sp.begin(root, "check:workers")
	small := w.Plan(o.seed, Small)
	var digests [2]string
	for i, workers := range []int{1, benchWorkers} {
		p, err := runPass(small, agents, o.seed, workers, false, o.scratch)
		if err != nil {
			return nil, err
		}
		count(p)
		digests[i] = p.Digest
	}
	sp.end(id)
	if digests[0] != digests[1] {
		fail("outputs differ between 1 and %d workers", benchWorkers)
	}

	// Training is measured once, in traced runs, outside the timed
	// phase; the passes keep the loaded models.
	var trainS float64
	if small.Tournament != nil && o.trace == 1 {
		id := sp.begin(root, "train")
		t0 := time.Now()
		train(o.seed, o.size)
		trainS = time.Since(t0).Seconds()
		sp.end(id)
	}

	// The timed phase starts from a returned heap and a reset RSS
	// high-water mark, so neither set-up nor the checks set
	// peak_rss_mb.
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	if o.cpuProf != "" {
		f, err := os.Create(o.cpuProf)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
		defer pprof.StopCPUProfile()
	}

	// Timed phase: whole passes while the next one is expected to end
	// within o.seconds (at least one; a traced run needs one of each
	// kind). A traced run alternates untraced and traced passes so the
	// tracing overhead is measured on the same machine state.
	plan := w.Plan(o.seed, o.size)
	var plain, traced []*PassResult
	var walls []float64
	start := time.Now()
	for k := 0; ; k++ {
		tr := o.trace == 1 && k%2 == 1
		enough := len(plain) > 0 && (o.trace == 0 || len(traced) > 0)
		if enough && time.Since(start).Seconds()+median(walls) > o.seconds {
			break
		}
		pid := sp.begin(root, fmt.Sprintf("pass:%d", k))
		p, err := runPass(plan, agents, o.seed, benchWorkers, tr, o.scratch)
		if err != nil {
			return nil, err
		}
		sp.end(pid)
		sp.addPass(pid, p)
		walls = append(walls, float64(p.WallNs)/1e9)
		count(p)
		if tr {
			traced = append(traced, p)
		} else {
			plain = append(plain, p)
		}
		fmt.Fprintf(log, "%s: pass %d traced=%t wall %.3fs sim %.1fs jobs %d failed %d\n",
			w.Name, k, tr, float64(p.WallNs)/1e9, float64(p.SimNs)/1e9, p.Attempted, p.Failed)
	}
	peakMB, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	sp.end(root)

	// Every pass ran the same inputs, so every output must agree.
	for _, p := range append(plain[1:], traced...) {
		if p.Digest != plain[0].Digest {
			fail("pass outputs differ between passes of one seed")
			break
		}
	}
	res.Correct = res.Correct && res.Failed == 0

	if o.trace == 0 {
		rates := make([]float64, len(plain))
		for i, p := range plain {
			rates[i] = float64(p.SimNs) / float64(p.WallNs)
		}
		vals := map[string]float64{
			"wall_s":        median(walls),
			"sim_s_per_s":   median(rates),
			"setup_s":       setupS,
			"peak_rss_mb":   peakMB,
			"flow_thr_mbps": plain[0].ThrMbps,
			"flow_rtt_ms":   plain[0].RTTMs,
		}
		for _, m := range endToEnd {
			res.Metrics[m.Name] = Value{Value: vals[m.Name], Unit: m.Unit}
		}
		return res, nil
	}

	// Per-layer metrics: median over traced passes of each figure. The
	// first pass warms the heap up; leave it out of the overhead
	// comparison when later untraced passes exist.
	per := make([]map[string]float64, len(traced))
	for i, p := range traced {
		per[i] = layerMetrics(p, setupS, trainS)
	}
	warm := plain
	if len(warm) > 1 {
		warm = warm[1:]
	}
	var pw, tw []float64
	for _, p := range warm {
		pw = append(pw, float64(p.WallNs))
	}
	for _, p := range traced {
		tw = append(tw, float64(p.WallNs))
	}
	for _, m := range perLayer {
		vs := make([]float64, len(per))
		for i, pm := range per {
			vs[i] = pm[m.Name]
		}
		v := median(vs)
		if m.Name == "trace.overhead_pct" {
			v = (median(tw)/median(pw) - 1) * 100
		}
		res.Metrics[m.Name] = Value{Value: v, Unit: m.Unit}
	}
	path := filepath.Join(o.scratch, "spans", fmt.Sprintf("%s-%d.json", w.Name, o.seed))
	if err := sp.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "%s: spans written to %s\n", w.Name, path)
	return res, nil
}

// checkCheckout fails unless the run starts at a repository checkout
// holding the shipped models.
func checkCheckout() error {
	for _, f := range []string{"go.mod", filepath.Join(modelsDir, "libra-rl.model"),
		filepath.Join(modelsDir, "aurora.model"), filepath.Join(modelsDir, "mod-rl.model"),
		filepath.Join(modelsDir, "orca.model")} {
		if _, err := os.Stat(f); err != nil {
			return fmt.Errorf("run from the repository root: %w", err)
		}
	}
	return nil
}

// median returns the median of vs (0 when empty).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// resetPeakRSS resets the kernel's resident-set high-water mark
// (VmHWM) to the current resident set.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB returns VmHWM, the resident-set high-water mark since the
// last reset, in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// printCatalog lists the workloads and every metric.
func printCatalog(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %-12s %s\n", wl.Name, wl.Why)
	}
	section := func(title string, ms []Metric) {
		fmt.Fprintln(w, title)
		for _, m := range ms {
			line := fmt.Sprintf("  %-34s %-9s %-7s", m.Name, m.Unit, m.Better)
			if m.Bound > 0 {
				line += fmt.Sprintf(" bound %.2f", m.Bound)
			}
			if m.Moves != "" {
				line += " -> " + m.Moves
			}
			fmt.Fprintln(w, strings.TrimRight(line, " "))
		}
	}
	section("end-to-end metrics (--trace 0):", endToEnd)
	section("per-layer metrics (--trace 1):", perLayer)
}
