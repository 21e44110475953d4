package exp

import (
	"time"

	"libra/internal/core"
)

func init() {
	Register(Experiment{
		ID:    "fig19",
		Title: "Sensitivity to stage durations [explore, EI, exploit] (Appendix B)",
		Paper: "Longer stages cost ~4.4% utilisation on cellular; EI of 1 RTT (vs 0.5) hurts utilisation; wired tolerates longer stages",
		Run:   runFig19,
	})
	Register(Experiment{
		ID:    "tab7",
		Title: "Sensitivity to the switching threshold th1 (Appendix B)",
		Paper: "0.1-0.4x base rate all within ~1.3pp utilisation; default 0.3 a good middle",
		Run:   runTab7,
	})
}

// libraWithParams builds a C-Libra maker with explicit stage parameters.
func libraWithParams(ag *AgentSet, exploreRTTs, exploitRTTs int, eiRTTs, th float64) Maker {
	return tunedCLibra(ag, func(c *core.Config) {
		c.ExploreRTTs, c.ExploitRTTs, c.EIRTTs, c.ThresholdFrac = exploreRTTs, exploitRTTs, eiRTTs, th
	})
}

func runFig19(rc *RunContext) *Report {
	rc.WithDefaults()
	dur := 40 * time.Second
	if rc.Quick {
		dur = 12 * time.Second
	}
	durations := []struct {
		name             string
		explore, exploit int
		ei               float64
	}{
		{"[1,0.5,1]", 1, 1, 0.5},
		{"[1,1,1]", 1, 1, 1},
		{"[2,0.5,2]", 2, 2, 0.5},
		{"[2,1,2]", 2, 2, 1},
		{"[3,0.5,3]", 3, 3, 0.5},
		{"[3,1,3]", 3, 3, 1},
	}
	wired := WiredScenarios(dur, 24, 48)
	cell := LTEScenarios(dur, rc.Seed)[:2]
	scens := append(append([]Scenario{}, wired...), cell...)

	ms := Sweep(rc, len(durations)*len(scens), func(jc *RunContext, i int) Metrics {
		d := durations[i/len(scens)]
		mk := libraWithParams(jc.agents(), d.explore, d.exploit, d.ei, 0.3)
		return jc.RunFlow(scens[i%len(scens)], mk, 0)
	})

	tbl := Table{Name: "C-Libra under different stage durations",
		Cols: []string{"[explore,EI,exploit]", "wired util", "wired delay(ms)", "cell util", "cell delay(ms)"}}
	starved := 0
	for di, d := range durations {
		avg := func(lo, n int) (float64, string) {
			var u float64
			var dl delayMean
			for k := 0; k < n; k++ {
				m := ms[di*len(scens)+lo+k]
				u += m.Util
				dl.add(m)
			}
			starved += dl.starved
			return u / float64(n), dl.format(0)
		}
		wu, wd := avg(0, len(wired))
		cu, cd := avg(len(wired), len(cell))
		tbl.AddRow(d.name, fmtF(wu, 3), wd, fmtF(cu, 3), cd)
	}
	return &Report{ID: "fig19", Title: "Stage-duration sensitivity", Tables: []Table{tbl},
		Notes: starvedNotes(starved)}
}

func runTab7(rc *RunContext) *Report {
	rc.WithDefaults()
	dur := 40 * time.Second
	if rc.Quick {
		dur = 12 * time.Second
	}
	ths := []float64{0.1, 0.2, 0.3, 0.4}
	wired := WiredScenarios(dur, 24, 48)
	cell := LTEScenarios(dur, rc.Seed)[:2]
	fams := []struct {
		name string
		ss   []Scenario
	}{{"Wired", wired}, {"Cellular", cell}}

	// Flatten (family, threshold, scenario): families have equal sizes.
	per := len(wired)
	ms := Sweep(rc, len(fams)*len(ths)*per, func(jc *RunContext, i int) Metrics {
		fi := i / (len(ths) * per)
		ti := i / per % len(ths)
		mk := libraWithParams(jc.agents(), 1, 1, 0.5, ths[ti])
		return jc.RunFlow(fams[fi].ss[i%per], mk, 0)
	})

	tbl := Table{Name: "C-Libra under different switching thresholds",
		Cols: []string{"config", "util", "avg delay(ms)"}}
	starved := 0
	for fi, fam := range fams {
		for ti, th := range ths {
			var u float64
			var d delayMean
			for k := 0; k < per; k++ {
				m := ms[(fi*len(ths)+ti)*per+k]
				u += m.Util
				d.add(m)
			}
			starved += d.starved
			tbl.AddRow(fam.name+"-"+fmtF(th, 1)+"x", fmtF(u/float64(per), 3), d.format(0))
		}
	}
	return &Report{ID: "tab7", Title: "Threshold sensitivity", Tables: []Table{tbl},
		Notes: starvedNotes(starved)}
}
