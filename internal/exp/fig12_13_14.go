package exp

import (
	"time"

	"libra/internal/stats"
	"libra/internal/trace"
)

func init() {
	Register(Experiment{
		ID:    "fig12",
		Title: "CPU overhead across sending rates (10-200 Mbps)",
		Paper: "Libra's overhead tracks its kernel classics; avg reductions of 47%/54%/59%/79%/84%/92% vs Orca/CL-Libra/Mod-RL/Indigo/Copa/Proteus",
		Run:   runFig12,
	})
	Register(Experiment{
		ID:    "fig13",
		Title: "Inter-protocol fairness: CCA under test vs one CUBIC flow",
		Paper: "C/B-Libra reach >98% Jain index vs CUBIC; Aurora/Proteus/Mod-RL starve or are starved",
		Run:   runFig13,
	})
	Register(Experiment{
		ID:    "fig14",
		Title: "Intra-protocol fairness: two same-CCA flows",
		Paper: "Libra ~99% Jain index; pure learning-based CCAs split unevenly",
		Run:   runFig14,
	})
}

func runFig12(rc *RunContext) *Report {
	rc.WithDefaults()
	dur := 30 * time.Second
	if rc.Quick {
		dur = 8 * time.Second
	}
	rates := []float64{10, 20, 30, 50, 100, 200}
	ccas := []string{"cubic", "bbr", "c-libra", "b-libra", "orca", "indigo", "copa", "proteus", "cl-libra", "mod-rl"}

	fracs := Sweep(rc, len(ccas)*len(rates), func(jc *RunContext, i int) float64 {
		r := rates[i%len(rates)]
		s := Scenario{
			Capacity: trace.Constant(trace.Mbps(r)),
			MinRTT:   40 * time.Millisecond,
			Buffer:   int(trace.Mbps(r) * 0.04),
			Duration: dur,
		}
		return jc.RunFlow(s, CCAMaker(ccas[i/len(rates)], nil)(jc), 0).CPUFrac
	})

	tbl := Table{Name: "controller compute fraction (x1e-6 of sim time)",
		Cols: append([]string{"cca"}, rateNames(rates)...)}
	avg := Table{Name: "average compute fraction and reduction vs worst",
		Cols: []string{"cca", "avg(x1e-6)", "vs max"}}
	sums := make([]float64, len(ccas))
	var worst float64
	for ci, name := range ccas {
		row := []string{name}
		for ri := range rates {
			f := fracs[ci*len(rates)+ri]
			row = append(row, fmtF(f*1e6, 1))
			sums[ci] += f
		}
		tbl.Rows = append(tbl.Rows, row)
		if sums[ci] > worst {
			worst = sums[ci]
		}
	}
	for ci, name := range ccas {
		mean := sums[ci] / float64(len(rates))
		avg.AddRow(name, fmtF(mean*1e6, 1), fmtF(1-sums[ci]/worst, 2))
	}
	return &Report{ID: "fig12", Title: "Overhead vs sending rate", Tables: []Table{tbl, avg}}
}

func rateNames(rs []float64) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = fmtF(r, 0) + "Mbps"
	}
	return out
}

// fairnessScenario is the Sec. 5.3 setup: 48 Mbps, 100 ms RTT, 1 BDP.
func fairnessScenario(d time.Duration) Scenario {
	capacity := trace.Mbps(48)
	return Scenario{
		Capacity: trace.Constant(capacity),
		MinRTT:   100 * time.Millisecond,
		Buffer:   int(capacity * 0.1),
		Duration: d,
	}
}

func runFig13(rc *RunContext) *Report {
	rc.WithDefaults()
	dur := 60 * time.Second
	if rc.Quick {
		dur = 20 * time.Second
	}
	ccas := []string{"cubic", "bbr", "copa", "aurora", "proteus", "orca", "mod-rl", "c-libra", "b-libra"}
	s := fairnessScenario(dur)

	pairs := Sweep(rc, len(ccas), func(jc *RunContext, i int) []Metrics {
		return jc.RunFlows(s, []Maker{CCAMaker(ccas[i], nil)(jc), CCAMaker("cubic", nil)(jc)},
			[]time.Duration{0, 0}, 0)
	})
	tbl := Table{Name: "CCA-under-test vs CUBIC", Cols: []string{"cca", "test share", "cubic share", "jain"}}
	for i, name := range ccas {
		ms := pairs[i]
		tot := ms[0].ThrMbps + ms[1].ThrMbps
		j := stats.JainIndex([]float64{ms[0].ThrMbps, ms[1].ThrMbps})
		tbl.AddRow(name, fmtF(ms[0].ThrMbps/tot, 3), fmtF(ms[1].ThrMbps/tot, 3), fmtF(j, 3))
	}
	return &Report{ID: "fig13", Title: "Inter-protocol fairness", Tables: []Table{tbl}}
}

func runFig14(rc *RunContext) *Report {
	rc.WithDefaults()
	dur := 60 * time.Second
	if rc.Quick {
		dur = 20 * time.Second
	}
	ccas := []string{"cubic", "bbr", "copa", "aurora", "proteus", "orca", "mod-rl", "c-libra", "b-libra"}
	s := fairnessScenario(dur)

	pairs := Sweep(rc, len(ccas), func(jc *RunContext, i int) []Metrics {
		return jc.RunFlows(s, []Maker{CCAMaker(ccas[i], nil)(jc), CCAMaker(ccas[i], nil)(jc)},
			[]time.Duration{0, 0}, 0)
	})
	tbl := Table{Name: "two same-CCA flows", Cols: []string{"cca", "flow1 share", "flow2 share", "jain"}}
	for i, name := range ccas {
		ms := pairs[i]
		tot := ms[0].ThrMbps + ms[1].ThrMbps
		j := stats.JainIndex([]float64{ms[0].ThrMbps, ms[1].ThrMbps})
		tbl.AddRow(name, fmtF(ms[0].ThrMbps/tot, 3), fmtF(ms[1].ThrMbps/tot, 3), fmtF(j, 3))
	}
	return &Report{ID: "fig14", Title: "Intra-protocol fairness", Tables: []Table{tbl}}
}
