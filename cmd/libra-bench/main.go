// Command libra-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	libra-bench -list
//	libra-bench -run fig1,fig7 [-quick] [-seed 1] [-models dir] [-parallel 8]
//	libra-bench -all -quick
//
// Each experiment prints the rows/series the corresponding paper
// artifact plots; EXPERIMENTS.md records the paper-vs-measured
// comparison. Reports are byte-identical at any -parallel setting.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"libra/internal/cliutil"
	"libra/internal/exp"
	"libra/internal/netem/faults"
)

func main() {
	var (
		list      = flag.Bool("list", false, "list experiments and exit")
		run       = flag.String("run", "", "comma-separated experiment IDs")
		all       = flag.Bool("all", false, "run every experiment")
		quick     = flag.Bool("quick", false, "reduced durations/repeats")
		seed      = flag.Int64("seed", 1, "random seed")
		models    = flag.String("models", "", "directory of trained models (from libra-train)")
		faultSpec = flag.String("fault", "", "apply a fault plan to every run: a preset name ("+strings.Join(faults.PresetNames(), "|")+") or a JSON plan file")
		topoArg   = flag.String("topo", "", "run every experiment over a multi-hop topology: a preset name ("+strings.Join(exp.TopoPresetNames(), "|")+") or a JSON topology file")
		rig       = cliutil.AddRig(flag.CommandLine)
	)
	flag.Parse()

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-8s %s\n         paper: %s\n", e.ID, e.Title, e.Paper)
		}
		return
	}

	var ids []string
	switch {
	case *all:
		for _, e := range exp.All() {
			ids = append(ids, e.ID)
		}
	case *run != "":
		ids = strings.Split(*run, ",")
	default:
		fmt.Fprintln(os.Stderr, "nothing to do: pass -list, -all, or -run ids")
		os.Exit(2)
	}

	plan, err := faults.Load(*faultSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	topo, err := exp.LoadTopo(*topoArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	rc, err := rig.Open(*seed, topo)
	if err != nil {
		fatal(err)
	}
	rc.Quick = *quick
	rc.FaultPlan = plan
	if *models != "" {
		set, err := exp.LoadAgentSet(*models, *seed)
		if err != nil {
			fatal(fmt.Errorf("load models: %w", err))
		}
		rc.Agents = set
	}

	for _, id := range ids {
		e, ok := exp.Get(strings.TrimSpace(id))
		if !ok {
			fatal(fmt.Errorf("unknown experiment %q (use -list)", id))
		}
		start := time.Now()
		// Experiment boundaries land in the stream as global markers so
		// `libra-trace spans` can label which runs belong to which figure.
		rc.EmitSpan(0, -1, "experiment:"+e.ID, true)
		rep := e.Run(rc)
		rc.EmitSpan(0, -1, "experiment:"+e.ID, false)
		fmt.Print(rep.String())
		fmt.Printf("(%s completed in %.1fs)\n\n", e.ID, time.Since(start).Seconds())
	}

	if err := rig.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
