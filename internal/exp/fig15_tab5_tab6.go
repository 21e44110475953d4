package exp

import (
	"time"

	"libra/internal/stats"
	"libra/internal/trace"
)

func init() {
	Register(Experiment{
		ID:    "fig15",
		Title: "Convergence of three staggered flows (includes Tab. 5 metrics)",
		Paper: "Tab. 5: conv time BBR 6.2s, CUBIC 14.8s, Indigo 5.4s, Proteus 17.2s, Orca 7.8s, C-Libra 3.6s, B-Libra 4.1s; Mod-RL never converges; Indigo equilibrium under-utilises (8.2 vs ~16 Mbps)",
		Run:   runFig15,
	})
	Register(Experiment{
		ID:    "tab6",
		Title: "Safety assurance: utilisation statistics over repeated trials",
		Paper: "Libra's range 3.2-11.7% vs Orca's 13.1-28.8%; Libra stddev 0.17-0.52x Orca's",
		Run:   runTab6,
	})
}

func runFig15(rc *RunContext) *Report {
	rc.WithDefaults()
	dur := 50 * time.Second
	if rc.Quick {
		dur = 30 * time.Second
	}
	ccas := []string{"bbr", "cubic", "mod-rl", "indigo", "proteus", "orca", "c-libra", "b-libra"}
	s := fairnessScenario(dur) // 48 Mbps, 100 ms, 1 BDP

	runs := Sweep(rc, len(ccas), func(jc *RunContext, i int) []Metrics {
		mk := CCAMaker(ccas[i], nil)(jc)
		return jc.RunFlows(s, []Maker{mk, mk, mk},
			[]time.Duration{0, 5 * time.Second, 10 * time.Second}, time.Second)
	})

	metrics := Table{Name: "Tab.5 metrics for the third flow (enters at 10s)",
		Cols: []string{"cca", "conv time(s)", "thr stddev(Mbps)", "avg thr(Mbps)", "jain(all 3)"}}
	var seriesTables []Table
	for i, name := range ccas {
		ms := runs[i]
		third := ms[2].Flow
		// Rate series of the third flow from its entry.
		nsec := int(dur / time.Second)
		rates := third.Stats.Throughput.Rates(nsec)[10:]
		mbps := make([]float64, len(rates))
		for ri, r := range rates {
			mbps[ri] = trace.ToMbps(r)
		}
		conv := stats.Convergence(mbps, time.Second, 0.25, 5*time.Second)
		convCell := "-"
		stdCell, meanCell := "-", "-"
		if conv.Converged {
			convCell = fmtF(conv.Time.Seconds(), 1)
			stdCell = fmtF(conv.StdDev, 2)
			meanCell = fmtF(conv.Mean, 1)
		}
		j := stats.JainIndex([]float64{ms[0].ThrMbps, ms[1].ThrMbps, ms[2].ThrMbps})
		metrics.AddRow(name, convCell, stdCell, meanCell, fmtF(j, 3))

		if !rc.Quick {
			st := Table{Name: "per-second throughput (Mbps) — " + name,
				Cols: []string{"t(s)", "flow1", "flow2", "flow3"}}
			for t := 0; t < nsec; t += 2 {
				st.AddRow(fmtF(float64(t), 0),
					fmtF(trace.ToMbps(ms[0].Flow.Stats.Throughput.Rate(t)), 1),
					fmtF(trace.ToMbps(ms[1].Flow.Stats.Throughput.Rate(t)), 1),
					fmtF(trace.ToMbps(ms[2].Flow.Stats.Throughput.Rate(t)), 1))
			}
			seriesTables = append(seriesTables, st)
		}
	}
	return &Report{ID: "fig15", Title: "Convergence dynamics",
		Tables: append([]Table{metrics}, seriesTables...)}
}

func runTab6(rc *RunContext) *Report {
	rc.WithDefaults()
	dur := 30 * time.Second
	trials := 20
	if rc.Quick {
		dur = 10 * time.Second
		trials = 6
	}
	ccas := []string{"orca", "c-libra", "b-libra"}

	type scen struct {
		name string
		mk   func(seed int64) Scenario
	}
	scens := []scen{
		{"Wired#1(24Mbps)", func(seed int64) Scenario {
			return Scenario{Capacity: trace.Constant(trace.Mbps(24)), MinRTT: 30 * time.Millisecond, Buffer: 150_000, Duration: dur}
		}},
		{"Wired#2(48Mbps)", func(seed int64) Scenario {
			return Scenario{Capacity: trace.Constant(trace.Mbps(48)), MinRTT: 30 * time.Millisecond, Buffer: 150_000, Duration: dur}
		}},
		{"LTE#1(stationary)", func(seed int64) Scenario {
			return Scenario{Capacity: trace.NewLTE(trace.LTEStationary, dur, seed), MinRTT: 30 * time.Millisecond, Buffer: 150_000, Duration: dur}
		}},
		{"LTE#2(moving)", func(seed int64) Scenario {
			return Scenario{Capacity: trace.NewLTE(trace.LTEWalking, dur, seed), MinRTT: 30 * time.Millisecond, Buffer: 150_000, Duration: dur}
		}},
	}

	// One job per (scenario, cca, trial); the trial's scenario is built
	// from the job seed so LTE channels differ across trials.
	utils := Sweep(rc, len(scens)*len(ccas)*trials, func(jc *RunContext, i int) float64 {
		sci := i / (len(ccas) * trials)
		ci := i / trials % len(ccas)
		return jc.RunFlow(scens[sci].mk(jc.Seed), CCAMaker(ccas[ci], nil)(jc), 0).Util
	})

	tbl := Table{Name: "link utilisation over repeated trials",
		Cols: []string{"scenario", "cca", "mean", "range", "stddev"}}
	for sci, sc := range scens {
		for ci, name := range ccas {
			lo := (sci*len(ccas) + ci) * trials
			us := utils[lo : lo+trials]
			tbl.AddRow(sc.name, name, fmtF(stats.Mean(us), 3),
				fmtF(stats.Range(us), 3), fmtF(stats.StdDev(us), 3))
		}
	}
	return &Report{ID: "tab6", Title: "Safety assurance", Tables: []Table{tbl}}
}
