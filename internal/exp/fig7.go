package exp

import (
	"time"
)

func init() {
	Register(Experiment{
		ID:    "fig7",
		Title: "Average throughput and delay across 4 wired + 4 cellular traces (full CCA sweep)",
		Paper: "C-Libra: ~0.97/0.95x CUBIC's throughput at 4.6/3.3x lower delay (wired/cellular); B-Libra cuts delay 30% vs BBR on cellular; both Pareto-dominate; Orca below Libra's throughput",
		Run:   runFig7,
	})
}

func runFig7(rc *RunContext) *Report {
	rc.WithDefaults()
	dur := 60 * time.Second
	if rc.Quick {
		dur = 12 * time.Second
	}
	wired := WiredScenarios(dur)
	cellular := LTEScenarios(dur, rc.Seed)
	ccas := []string{"cubic", "bbr", "copa", "sprout", "vivace", "proteus", "remy",
		"indigo", "aurora", "orca", "mod-rl", "cl-libra", "c-libra", "b-libra"}

	starved := 0
	family := func(name string, ss []Scenario) Table {
		tbl := Table{Name: name, Cols: []string{"cca", "norm.thr", "avg delay(ms)", "loss"}}
		// One job per (cca, scenario) flow; normalisation needs every
		// result, so it runs after the sweep.
		ms := Sweep(rc, len(ccas)*len(ss), func(jc *RunContext, i int) Metrics {
			return jc.RunFlow(ss[i%len(ss)], CCAMaker(ccas[i/len(ss)], nil)(jc), 0)
		})
		type agg struct {
			thr, loss float64
			delay     delayMean
		}
		aggs := make([]agg, len(ccas))
		best := 0.0
		for ci := range ccas {
			var a agg
			for si := range ss {
				m := ms[ci*len(ss)+si]
				a.thr += m.ThrMbps
				a.delay.add(m)
				a.loss += m.LossRate
			}
			n := float64(len(ss))
			a.thr /= n
			a.loss /= n
			aggs[ci] = a
			starved += a.delay.starved
			if a.thr > best {
				best = a.thr
			}
		}
		for ci, cca := range ccas {
			a := aggs[ci]
			tbl.AddRow(cca, fmtF(a.thr/best, 3), a.delay.format(0), fmtF(a.loss, 4))
		}
		return tbl
	}

	tables := []Table{
		family("wired traces (avg of 4)", wired),
		family("cellular traces (avg of 4)", cellular),
	}
	return &Report{
		ID:     "fig7",
		Title:  "Trace sweep (throughput vs delay scatter data)",
		Tables: tables,
		Notes:  starvedNotes(starved),
	}
}
