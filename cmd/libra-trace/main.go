// Command libra-trace generates and inspects capacity traces —
// including Mahimahi-format import/export so workloads can be
// exchanged with the emulator the paper used — and analyzes JSONL
// telemetry event streams recorded with -trace-out.
//
// Usage:
//
//	libra-trace -gen lte:driving -dur 60s -o driving.mahi
//	libra-trace -inspect driving.mahi
//	libra-trace -inspect 'a.mahi,b.mahi,c.mahi' -parallel 4
//	libra-trace -validate 'run1.jsonl,run2.jsonl' -parallel 4
//	libra-trace analyze events.jsonl
//	libra-trace analyze -json -parallel 4 run1.jsonl run2.jsonl
//	libra-trace analyze -flight-out dumps/ events.jsonl
//	libra-trace analyze -slo 'bulk:mean_thr_mbps>=5' events.jsonl
//	libra-trace spans -o trace.json events.jsonl
//	libra-trace timeline -o series.json events.jsonl
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"libra/internal/analyze"
	"libra/internal/cliutil"
	"libra/internal/stats"
	"libra/internal/sweep"
	"libra/internal/telemetry"
	"libra/internal/telemetry/spans"
	"libra/internal/trace"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "analyze":
			runAnalyze(os.Args[2:])
			return
		case "spans":
			runSpans(os.Args[2:])
			return
		case "timeline":
			runTimeline(os.Args[2:])
			return
		}
	}
	var (
		gen      = flag.String("gen", "", "generate: lte:stationary|walking|driving|tour, const:<Mbps>, step:<P,L1,L2,..>")
		dur      = flag.Duration("dur", 60*time.Second, "trace duration")
		seed     = flag.Int64("seed", 1, "random seed")
		out      = flag.String("o", "", "output file (Mahimahi format; default stdout)")
		inspect  = flag.String("inspect", "", "parse Mahimahi traces (comma-separated) and print statistics")
		validate = flag.String("validate", "", "validate JSONL event streams (comma-separated) against the telemetry schema")
		parallel = flag.Int("parallel", 0, "-validate/-inspect worker count (0 = GOMAXPROCS)")
	)
	flag.Parse()

	switch {
	case *validate != "":
		// Validate every stream concurrently; reports are printed in
		// argument order so the output is identical at any -parallel
		// setting. Errors name the offending file and line.
		paths := strings.Split(*validate, ",")
		type result struct {
			events int64
			err    error
		}
		results := sweep.Map(sweep.Workers(*parallel), len(paths), func(i int) result {
			path := strings.TrimSpace(paths[i])
			f, err := os.Open(path)
			if err != nil {
				return result{err: err}
			}
			defer f.Close()
			n, err := telemetry.ValidateStream(f, path)
			return result{events: n, err: err}
		})
		bad := false
		for i, r := range results {
			if r.err != nil {
				bad = true
				fmt.Fprintln(os.Stderr, r.err)
				continue
			}
			fmt.Printf("%s: %d events ok (schema v%d)\n",
				strings.TrimSpace(paths[i]), r.events, telemetry.SchemaVersion)
		}
		if bad {
			os.Exit(1)
		}
	case *inspect != "":
		// Inspect every file concurrently; outputs are buffered per file
		// and printed in argument order, so the report is identical at
		// any -parallel setting.
		paths := strings.Split(*inspect, ",")
		type result struct {
			out []byte
			err error
		}
		results := sweep.Map(sweep.Workers(*parallel), len(paths), func(i int) result {
			path := strings.TrimSpace(paths[i])
			f, err := os.Open(path)
			if err != nil {
				return result{err: err}
			}
			defer f.Close()
			var buf bytes.Buffer
			if len(paths) > 1 {
				fmt.Fprintf(&buf, "%s:\n", path)
			}
			if err := inspectTrace(f, path, &buf); err != nil {
				return result{err: err}
			}
			return result{out: buf.Bytes()}
		})
		for _, r := range results {
			if r.err != nil {
				fatal(r.err)
			}
			os.Stdout.Write(r.out)
		}
	case *gen != "":
		var tr trace.Trace
		switch *gen {
		case "lte:stationary":
			tr = trace.NewLTE(trace.LTEStationary, *dur, *seed)
		case "lte:walking":
			tr = trace.NewLTE(trace.LTEWalking, *dur, *seed)
		case "lte:driving":
			tr = trace.NewLTE(trace.LTEDriving, *dur, *seed)
		case "lte:tour":
			tr = trace.NewDrivingTour(*dur, *seed)
		default:
			var mbps float64
			if n, _ := fmt.Sscanf(*gen, "const:%g", &mbps); n == 1 {
				tr = trace.Constant(trace.Mbps(mbps))
				break
			}
			if payload, ok := strings.CutPrefix(*gen, "step:"); ok {
				st, err := trace.ParseStep(payload)
				if err != nil {
					fatal(err)
				}
				tr = st
				break
			}
			fatal(fmt.Errorf("unknown generator %q", *gen))
		}
		w := os.Stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			w = f
		}
		if err := trace.WriteMahimahi(w, tr, *dur); err != nil {
			fatal(err)
		}
		if *out != "" {
			fmt.Printf("wrote %s (%s, mean %.2f Mbps)\n", *out, *dur,
				trace.ToMbps(trace.MeanRate(tr, *dur, 100*time.Millisecond)))
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// runSpans is the `libra-trace spans` subcommand: convert one or more
// JSONL event streams into a single Chrome trace-event JSON file that
// Perfetto (ui.perfetto.dev) and chrome://tracing load directly. Files
// are fed to the builder in argument order; each run boundary (time
// going backwards, as in a -reps sweep or concatenated files) becomes
// its own process in the trace.
func runSpans(args []string) {
	fs := flag.NewFlagSet("spans", flag.ExitOnError)
	out := fs.String("o", "", "output file (Chrome trace-event JSON; default stdout)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: libra-trace spans [-o trace.json] <events.jsonl>...")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	paths := fs.Args()
	if len(paths) == 0 {
		fs.Usage()
		fatal(errors.New("spans: no trace files given (record one with libra-sim/libra-bench -trace-out, or use a flight-recorder dump)"))
	}

	b := spans.NewBuilder()
	for _, path := range paths {
		if err := readFile(path, b.Add); err != nil {
			fatal(err)
		}
	}
	b.Finish()

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if _, err := b.WriteTo(w); err != nil {
		fatal(err)
	}
	if *out != "" {
		fmt.Printf("wrote %d trace events (%d runs) to %s — open at ui.perfetto.dev\n",
			b.Events(), b.Runs(), *out)
	}
}

// runTimeline is the `libra-trace timeline` subcommand: reconstruct
// the downsampled time-series snapshot offline from recorded JSONL
// event streams. Buckets key on virtual event time, files are
// collected in parallel and merged in argument order, so the output is
// byte-identical to a live run's -timeseries-out at any -parallel
// setting.
func runTimeline(args []string) {
	fs := flag.NewFlagSet("timeline", flag.ExitOnError)
	out := fs.String("o", "", "output file (default stdout)")
	bucket := fs.Duration("bucket", telemetry.DefaultTSBucket, "base bucket width")
	capacity := fs.Int("buckets", telemetry.DefaultTSCapacity, "per-series bucket capacity (downsamples 2x when exceeded)")
	parallel := fs.Int("parallel", 0, "per-file collection worker count (0 = GOMAXPROCS)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: libra-trace timeline [-o series.json] [-bucket 100ms] [-buckets 512] [-parallel N] <events.jsonl>...")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	paths := fs.Args()
	if len(paths) == 0 {
		fs.Usage()
		fatal(errors.New("timeline: no trace files given (record one with libra-sim/libra-bench -trace-out)"))
	}

	type result struct {
		ts  *telemetry.TSCollector
		err error
	}
	results := sweep.Map(sweep.Workers(*parallel), len(paths), func(i int) result {
		ts := telemetry.NewTSCollector(*bucket, *capacity)
		if err := readFile(paths[i], ts.Emit); err != nil {
			return result{err: err}
		}
		return result{ts: ts}
	})
	total := telemetry.NewTSCollector(*bucket, *capacity)
	for _, r := range results {
		if r.err != nil {
			fatal(r.err)
		}
		total.Merge(r.ts)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := total.WriteJSON(w); err != nil {
		fatal(err)
	}
}

// runAnalyze is the `libra-trace analyze` subcommand: run every JSONL
// event stream through the streaming analytics engine — files in
// parallel — and merge the per-file analyses in argument order, so
// the report is byte-identical at any -parallel setting.
func runAnalyze(args []string) {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit the machine-readable JSON report instead of text")
	window := fs.Duration("window", time.Second, "Jain fairness window width")
	parallel := fs.Int("parallel", 0, "per-file analysis worker count (0 = GOMAXPROCS)")
	flightOut := fs.String("flight-out", "", "replay the streams through a flight recorder, dumping anomaly snapshots into this directory")
	sloSpec := fs.String("slo", "", "comma-separated SLO specs, e.g. 'bulk:mean_thr_mbps>=5,low-latency:p95_rtt_ms<=100' (empty = profile defaults)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: libra-trace analyze [-json] [-window 1s] [-parallel N] [-flight-out dir] [-slo specs] <events.jsonl>...")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	paths := fs.Args()
	if len(paths) == 0 {
		fs.Usage()
		fatal(errors.New("analyze: no trace files given (record one with libra-sim/libra-bench -trace-out)"))
	}
	slos, err := analyze.ParseSLOs(*sloSpec)
	if err != nil {
		fatal(err)
	}

	rep, err := analyzeFiles(paths, analyze.Config{Window: *window, SLOs: slos}, *parallel)
	if err != nil {
		fatal(err)
	}
	if *flightOut != "" {
		if err := replayFlight(paths, *flightOut); err != nil {
			fatal(err)
		}
	}
	if *jsonOut {
		err = rep.WriteJSON(os.Stdout)
	} else {
		err = rep.WriteText(os.Stdout)
	}
	if err != nil {
		fatal(err)
	}
}

// replayFlight re-reads the streams sequentially in argument order and
// feeds them through a flight recorder plus the anomaly tap, cutting
// after-the-fact dumps for every detector firing — the offline twin of
// a live run's -flight-out. Sequential replay keeps the dump files
// deterministic regardless of the analyze -parallel setting.
func replayFlight(paths []string, dir string) error {
	fl, closeFlight, err := cliutil.OpenFlight(dir, nil)
	if err != nil {
		return err
	}
	tap := telemetry.Multi(cliutil.FlightTap(fl), cliutil.AnomalyTap(fl))
	for _, path := range paths {
		if err := readFile(path, tap.Emit); err != nil {
			return err
		}
	}
	return closeFlight()
}

// readFile replays the JSONL event stream at path into emit; a decode
// error names the file.
func readFile(path string, emit func(*telemetry.Event)) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := telemetry.ReadEach(f, emit); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// analyzeFiles analyzes every file on `workers` workers and merges the
// per-file analyses in argument order.
func analyzeFiles(paths []string, cfg analyze.Config, workers int) (*analyze.Report, error) {
	type result struct {
		a   *analyze.Analyzer
		err error
	}
	results := sweep.Map(sweep.Workers(workers), len(paths), func(i int) result {
		f, err := os.Open(paths[i])
		if err != nil {
			return result{err: err}
		}
		defer f.Close()
		a, err := analyze.ReadStream(f, cfg)
		if err != nil {
			return result{err: fmt.Errorf("%s: %w", paths[i], err)}
		}
		a.Finalize()
		return result{a: a}
	})
	total := analyze.New(cfg)
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		total.Merge(r.a)
	}
	return total.Report(), nil
}

// inspectTrace parses a Mahimahi trace from r and writes its summary
// statistics to w. A trace with no rate samples (empty file, or headers
// and comments only) is a clear error rather than a panic.
func inspectTrace(r io.Reader, name string, w io.Writer) error {
	tr, err := trace.ParseMahimahi(r)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if len(tr.Rates) == 0 {
		return fmt.Errorf("%s: trace has no delivery opportunities (empty or comment-only file)", name)
	}
	lo, hi := tr.Rates[0], tr.Rates[0]
	sk := stats.NewSketch(0)
	for _, r := range tr.Rates {
		if r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
		sk.Add(trace.ToMbps(r))
	}
	_, err = fmt.Fprintf(w, "duration: %s\nsamples:  %d @ %s\nmean:     %.2f Mbps\nmin/max:  %.2f / %.2f Mbps\np50/p95/p99: %.2f / %.2f / %.2f Mbps\n",
		tr.Duration(), len(tr.Rates), tr.Interval,
		trace.ToMbps(tr.Mean()), trace.ToMbps(lo), trace.ToMbps(hi),
		sk.Quantile(0.50), sk.Quantile(0.95), sk.Quantile(0.99))
	return err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
