package exp

import (
	"time"
)

func init() {
	Register(Experiment{
		ID:    "fig1",
		Title: "Adaptability: link utilisation and average delay over wired/LTE traces",
		Paper: "CUBIC/BBR bufferbloat on LTE (delay up to ~220ms); Orca/Proteus cut delay ~60% vs CUBIC at 8.4-13.5% lower utilisation; Libra keeps high utilisation at low delay",
		Run:   runFig1,
	})
}

func runFig1(rc *RunContext) *Report {
	rc.WithDefaults()
	dur := 60 * time.Second
	reps := 3
	if rc.Quick {
		dur = 15 * time.Second
		reps = 1
	}
	scenarios := append(WiredScenarios(dur, 24, 48, 96), LTEScenarios(dur, rc.Seed)[:3]...)
	ccas := []string{"cubic", "bbr", "orca", "proteus", "c-libra"}

	// One sweep job per (cca, scenario, repetition) flow.
	ms := Sweep(rc, len(ccas)*len(scenarios)*reps, func(jc *RunContext, i int) Metrics {
		ci := i / (len(scenarios) * reps)
		si := i / reps % len(scenarios)
		return jc.RunFlow(scenarios[si], CCAMaker(ccas[ci], nil)(jc), 0)
	})

	tbl := Table{
		Name: "link utilisation / avg delay (ms) per scenario",
		Cols: append([]string{"cca"}, scenarioNames(scenarios)...),
	}
	starved := 0
	for ci, name := range ccas {
		row := []string{name}
		for si := range scenarios {
			var u float64
			var d delayMean
			for r := 0; r < reps; r++ {
				m := ms[(ci*len(scenarios)+si)*reps+r]
				u += m.Util
				d.add(m)
			}
			u /= float64(reps)
			starved += d.starved
			row = append(row, fmtF(u, 2)+" / "+d.format(0))
		}
		tbl.AddRow(row...)
	}
	return &Report{ID: "fig1", Title: "Adaptability under wired / cellular networks", Tables: []Table{tbl},
		Notes: starvedNotes(starved)}
}

func scenarioNames(ss []Scenario) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = s.Name
	}
	return out
}
