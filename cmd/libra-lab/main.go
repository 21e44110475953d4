// Command libra-lab is the adversarial robustness laboratory: it
// searches for the network conditions that break a congestion
// controller, replays discovered worst cases with full forensics, and
// runs round-robin robustness tournaments across controllers.
//
// Usage:
//
//	libra-lab search -cca cubic -budget 64 -o worst-cubic.json
//	libra-lab search -cca bbr -json -flight-out dumps/
//	libra-lab replay -spec worst-cubic.json -cca bbr
//	libra-lab tournament -cca cubic,bbr,reno -budget 32
//	libra-lab tournament -cca all -json -specs-dir worst/
//
// Everything is deterministic: the same seed and flags produce
// byte-identical output at any -parallel count.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"libra/internal/cliutil"
	"libra/internal/exp"
	"libra/internal/lab"
	"libra/internal/utility"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "search":
		runSearch(os.Args[2:])
	case "tournament":
		runTournament(os.Args[2:])
	case "replay":
		runReplay(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "libra-lab: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  libra-lab search     -cca <name> [-budget N] [-seed N] [-dur 4s] [-o spec.json] [-json]
  libra-lab replay     -spec worst.json [-cca <other>] [-json]
  libra-lab tournament -cca <a,b,..|all> [-budget N] [-seed N] [-dur 4s] [-json] [-specs-dir dir]

shared flags: -parallel N, -trace-out f.jsonl, -metrics-out f, -metrics-format auto|json|prom,
              -flight-out dir, -pprof addr, -http addr, -timeseries-out f.json`)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// openRig opens the operator rig for a subcommand; the returned
// teardown flushes it and exits on the first sink error.
func openRig(rig *cliutil.Rig, seed int64) (*exp.RunContext, func()) {
	rc, err := rig.Open(seed, nil)
	if err != nil {
		fatal(err)
	}
	return rc, func() {
		if err := rig.Close(); err != nil {
			fatal(err)
		}
	}
}

func runSearch(args []string) {
	fs := flag.NewFlagSet("search", flag.ExitOnError)
	cca := fs.String("cca", "", "target controller to break (required)")
	budget := fs.Int("budget", 64, "evaluation budget")
	seed := fs.Int64("seed", 1, "search seed")
	dur := fs.Duration("dur", 4*time.Second, "simulated length of each evaluation")
	out := fs.String("o", "", "write the discovered worst case as a replayable spec file")
	jsonOut := fs.Bool("json", false, "emit the full machine-readable search result")
	rig := cliutil.AddRig(fs)
	fs.Parse(args)
	if *cca == "" {
		fs.Usage()
		fatal(fmt.Errorf("search: -cca is required (one of %s)", strings.Join(exp.KnownCCAs(), ", ")))
	}

	rc, teardown := openRig(rig, *seed)
	sr, err := lab.Search(rc, lab.SearchConfig{
		Target: *cca, Seed: *seed, Budget: *budget, DurS: dur.Seconds(),
	})
	if err != nil {
		fatal(err)
	}
	// Replay the discovery at top level with the lab_worst_case marker:
	// with -flight-out set this cuts the forensic dump for the find.
	lab.Replay(rc, sr.Best.Spec, utility.Default(), true)

	if *out != "" {
		if err := sr.Best.Spec.WriteFile(*out); err != nil {
			fatal(err)
		}
		fmt.Printf("worst case written to %s\n", *out)
	}
	if *jsonOut {
		if err := writeJSON(os.Stdout, sr); err != nil {
			fatal(err)
		}
	} else {
		worst := sr.Presets[0]
		for _, o := range sr.Presets[1:] {
			if o.Score < worst.Score {
				worst = o
			}
		}
		fmt.Printf("target %s: baseline %.3f, worst preset %s %.3f\n",
			sr.Target, sr.Baseline.Score, sr.WorstPreset, worst.Score)
		fmt.Printf("discovered %.3f after %d evals / %d rounds (%+.3f vs worst preset)\n",
			sr.Best.Score, sr.Evals, sr.Rounds, sr.Best.Score-worst.Score)
		sp := sr.Best.Spec
		fmt.Printf("worst case: cap %.1f Mbps (dip %.2f every %.1fs), rtt %.0f ms, cross %d, %d anomalies\n",
			sp.CapMbps, sp.DipFrac, sp.PeriodS, sp.RTTMs, sp.Cross, sr.Best.Anomalies)
	}
	teardown()
}

func runReplay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	specPath := fs.String("spec", "", "worst-case spec file to replay (required)")
	cca := fs.String("cca", "", "override the spec's target controller")
	jsonOut := fs.Bool("json", false, "emit the machine-readable outcome")
	rig := cliutil.AddRig(fs)
	fs.Parse(args)
	if *specPath == "" {
		fs.Usage()
		fatal(fmt.Errorf("replay: -spec is required"))
	}
	sp, err := lab.ReadSpecFile(*specPath)
	if err != nil {
		fatal(err)
	}
	if *cca != "" {
		sp.Target = *cca
		if err := sp.Validate(); err != nil {
			fatal(err)
		}
	}

	rc, teardown := openRig(rig, sp.Seed)
	out := lab.Replay(rc, sp, utility.Default(), true)
	if *jsonOut {
		if err := writeJSON(os.Stdout, out); err != nil {
			fatal(err)
		}
	} else {
		status := "ok"
		if out.Failed {
			status = "FAILED"
		}
		fmt.Printf("%s vs %s (seed %d): score %.3f [%s]\n",
			sp.Target, sp.Name(), sp.Seed, out.Score, status)
		fmt.Printf("thr %.2f Mbps, delay %.1f ms, loss %.3f%%, %d anomalies\n",
			out.ThrMbps, out.DelayMs, out.LossRate*100, out.Anomalies)
	}
	teardown()
}

func runTournament(args []string) {
	fs := flag.NewFlagSet("tournament", flag.ExitOnError)
	ccas := fs.String("cca", "all", `contestants, comma-separated ("all" = every controller in the harness table)`)
	budget := fs.Int("budget", 32, "per-CCA adversarial search budget")
	seed := fs.Int64("seed", 1, "tournament seed")
	dur := fs.Duration("dur", 4*time.Second, "simulated length of each evaluation")
	jsonOut := fs.Bool("json", false, "emit the machine-readable leaderboard (includes worst-case specs)")
	out := fs.String("o", "", "also write the JSON leaderboard to this file")
	specsDir := fs.String("specs-dir", "", "write each contestant's worst-case spec into this directory")
	rig := cliutil.AddRig(fs)
	fs.Parse(args)

	var contestants []string
	if *ccas == "all" {
		contestants = exp.KnownCCAs()
	} else {
		for _, c := range strings.Split(*ccas, ",") {
			if c = strings.TrimSpace(c); c != "" {
				contestants = append(contestants, c)
			}
		}
	}

	rc, teardown := openRig(rig, *seed)
	lb, err := lab.Tournament(rc, lab.TournamentConfig{
		CCAs: contestants, Seed: *seed, Budget: *budget, DurS: dur.Seconds(),
	})
	if err != nil {
		fatal(err)
	}

	if *specsDir != "" {
		if err := os.MkdirAll(*specsDir, 0o755); err != nil {
			fatal(err)
		}
		for _, w := range lb.Worsts {
			name := strings.TrimPrefix(w.Label, "worst:")
			if err := w.WriteFile(filepath.Join(*specsDir, "worst-"+name+".json")); err != nil {
				fatal(err)
			}
		}
		fmt.Printf("%d worst-case specs written to %s\n", len(lb.Worsts), *specsDir)
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		if err := lb.WriteJSON(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	if *jsonOut {
		err = lb.WriteJSON(os.Stdout)
	} else {
		err = lb.WriteText(os.Stdout)
	}
	if err != nil {
		fatal(err)
	}
	teardown()
}

func writeJSON(w *os.File, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}
