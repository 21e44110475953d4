package exp

import (
	"fmt"
	"time"

	"libra/internal/core"
	"libra/internal/netem/faults"
	"libra/internal/trace"
)

func init() {
	Register(Experiment{
		ID:    "figa1",
		Title: "Adversarial sweep: fault classes vs controllers",
		Paper: "Robustness extension (not in the paper): Libra variants degrade gracefully and recover from blackouts without stalling, where a pure RL agent has no fallback",
		Run:   runFigA1,
	})
}

// runFigA1 drives each controller through every fault class on a fixed
// wired path and reports throughput/delay/loss plus Libra's skipped
// (no-feedback) cycle count — the visible footprint of the no-ACK
// watchdog.
func runFigA1(rc *RunContext) *Report {
	rc.WithDefaults()
	dur := 60 * time.Second
	classes := []string{"none", "bursty", "blackout", "reorder", "jitter", "dup", "cap-flap", "hostile"}
	if rc.Quick {
		dur = 12 * time.Second
		classes = []string{"none", "bursty", "blackout", "cap-flap"}
	}
	ccas := []string{"cubic", "bbr", "mod-rl", "c-libra", "b-libra"}

	scens := make([]Scenario, len(classes))
	for i, class := range classes {
		var plan *faults.Plan
		if class != "none" {
			p, ok := faults.Preset(class)
			if !ok {
				panic("figa1: missing preset " + class)
			}
			plan = p
		}
		scens[i] = Scenario{
			Name:     "adversarial-" + class,
			Capacity: trace.Constant(trace.Mbps(24)),
			MinRTT:   40 * time.Millisecond,
			Buffer:   150_000,
			Duration: dur,
			Faults:   plan,
		}
	}

	ms := Sweep(rc, len(classes)*len(ccas), func(jc *RunContext, i int) Metrics {
		return jc.RunFlow(scens[i/len(ccas)], CCAMaker(ccas[i%len(ccas)], nil)(jc), 0)
	})

	tbl := Table{Name: "per fault class: throughput (Mbps), delay (ms), loss (%), skipped cycles",
		Cols: []string{"fault", "cca", "thr", "delay", "loss%", "skipped"}}
	for si, class := range classes {
		for ci, name := range ccas {
			m := ms[si*len(ccas)+ci]
			if m.Failed {
				tbl.AddRow(class, name, "failed", "-", "-", "-")
				continue
			}
			skipped := "-"
			if lb, ok := m.Ctrl.(*core.Libra); ok {
				skipped = fmt.Sprintf("%d", lb.Telemetry().Skipped)
			}
			tbl.AddRow(class, name, fmtF(m.ThrMbps, 2), fmtF(m.DelayMs, 0), fmtF(m.LossRate*100, 2), skipped)
		}
	}
	return &Report{ID: "figa1", Title: "Behaviour under injected faults", Tables: []Table{tbl}}
}
