package exp

import (
	"fmt"
	"time"

	"libra/internal/stats"
	"libra/internal/sweep"
	"libra/internal/trace"
)

func init() {
	Register(Experiment{
		ID:    "fig2a",
		Title: "Step-scenario convergence: throughput vs time",
		Paper: "Proteus and Orca fail to converge to capacity in the 30-50s window; Libra tracks every step",
		Run:   runFig2a,
	})
	Register(Experiment{
		ID:    "fig2b",
		Title: "CDF of link utilisation over repeated cellular runs (safety)",
		Paper: "Orca/Proteus highly variable across 100 runs; Libra's CDF is tight near full utilisation",
		Run:   runFig2b,
	})
	Register(Experiment{
		ID:    "fig2c",
		Title: "Normalized CPU and memory overhead per CCA",
		Paper: "Pure learning-based CCAs dominate: Proteus 88.7% CPU / 10.1% mem, Indigo 18.3% / 7.2%; kernel CCAs and Libra negligible",
		Run:   runFig2c,
	})
}

// stepScenario is the Fig. 2(a) workload: capacity changing every 10 s,
// 80 ms RTT, 1 BDP buffer.
func stepScenario(d time.Duration) Scenario {
	levels := []float64{trace.Mbps(20), trace.Mbps(5), trace.Mbps(15), trace.Mbps(10), trace.Mbps(25)}
	return Scenario{
		Name:     "step",
		Capacity: &trace.Step{Period: 10 * time.Second, Levels: levels},
		MinRTT:   80 * time.Millisecond,
		Buffer:   int(trace.Mbps(15) * 0.08), // ~1 BDP at the mean level
		Duration: d,
	}
}

func runFig2a(rc *RunContext) *Report {
	rc.WithDefaults()
	dur := 50 * time.Second
	if rc.Quick {
		dur = 20 * time.Second
	}
	s := stepScenario(dur)
	ccas := []string{"proteus", "cl-libra", "c-libra", "orca"}

	series := Sweep(rc, len(ccas), func(jc *RunContext, i int) []float64 {
		m := jc.RunFlow(s, mustMaker(ccas[i], jc.agents(), nil), time.Second)
		return m.Flow.Stats.Throughput.Rates(int(dur / time.Second))
	})

	tbl := Table{Name: "throughput (Mbps) per second", Cols: append([]string{"t(s)", "capacity"}, ccas...)}
	for t := 0; t < int(dur/time.Second); t++ {
		row := []string{fmtF(float64(t), 0), fmtF(trace.ToMbps(s.Capacity.RateAt(time.Duration(t)*time.Second)), 1)}
		for i := range ccas {
			row = append(row, fmtF(trace.ToMbps(series[i][t]), 1))
		}
		tbl.AddRow(row...)
	}
	return &Report{ID: "fig2a", Title: "Throughput over the step scenario", Tables: []Table{tbl}}
}

func runFig2b(rc *RunContext) *Report {
	rc.WithDefaults()
	dur := 30 * time.Second
	reps := 30
	if rc.Quick {
		dur = 10 * time.Second
		reps = 8
	}
	ccas := []string{"proteus", "cubic", "bbr", "c-libra", "orca"}

	// One job per (cca, repetition): the LTE trace is drawn from the
	// job's seed, so every repetition sees a different channel.
	utils := Sweep(rc, len(ccas)*reps, func(jc *RunContext, i int) float64 {
		s := Scenario{
			Name:     "lte",
			Capacity: trace.NewLTE(trace.LTEWalking, dur, jc.Seed),
			MinRTT:   30 * time.Millisecond,
			Buffer:   150_000,
			Duration: dur,
		}
		return jc.RunFlow(s, mustMaker(ccas[i/reps], jc.agents(), nil), 0).Util
	})

	points := []float64{0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0}
	tbl := Table{Name: "CDF of link utilisation (TMobile-like LTE, repeated runs)",
		Cols: append([]string{"cca"}, fmtPoints(points)...)}
	summary := Table{Name: "utilisation summary", Cols: []string{"cca", "mean", "range", "stddev"}}
	for ci, name := range ccas {
		us := utils[ci*reps : (ci+1)*reps]
		cdf := stats.CDF(us, points)
		row := []string{name}
		for _, v := range cdf {
			row = append(row, fmtF(v, 2))
		}
		tbl.AddRow(row...)
		summary.AddRow(name, fmtF(stats.Mean(us), 3), fmtF(stats.Range(us), 3), fmtF(stats.StdDev(us), 3))
	}
	return &Report{ID: "fig2b", Title: "Utilisation CDF over repeated cellular runs", Tables: []Table{tbl, summary}}
}

func fmtPoints(ps []float64) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = "<=" + fmtF(p, 2)
	}
	return out
}

// fig2cReps is how many times fig2c runs each CCA. The runs are
// identical, so only the controller's measured compute time differs
// between them; one short -quick run per CCA orders the CPU column by
// scheduler noise, the median of five much less so.
const fig2cReps = 5

func runFig2c(rc *RunContext) *Report {
	rc.WithDefaults()
	dur := 60 * time.Second
	if rc.Quick {
		dur = 10 * time.Second
	}
	ccas := []string{"cubic", "bbr", "c-libra", "orca", "indigo", "copa", "proteus"}
	s := Scenario{
		Name:     "lte",
		Capacity: trace.NewLTE(trace.LTEWalking, dur, rc.Seed),
		MinRTT:   30 * time.Millisecond,
		Buffer:   150_000,
		Duration: dur,
	}

	type res struct {
		cpu float64
		mem float64
		own float64
	}
	// Job i runs CCA i%len(ccas), so each round of the sweep times every
	// CCA once and a slow stretch of the host hits all of them alike.
	// Rounds after the first repeat job i%len(ccas) exactly (its seed
	// and agents) and record nothing, so the registry and the event
	// stream hold each CCA's flow once.
	rs := Sweep(rc, len(ccas)*fig2cReps, func(jc *RunContext, i int) res {
		ci := i % len(ccas)
		if i >= len(ccas) {
			jc = jc.Reseed(sweep.SubSeed(rc.Seed, ci)).quiet()
		}
		m := jc.RunFlow(s, mustMaker(ccas[ci], jc.agents(), nil), 0)
		return res{cpu: m.CPUFrac, mem: float64(controllerMemBytes(m.Ctrl)),
			own: float64(ControllerOwnMemBytes(m.Ctrl))}
	})
	cpu := make([]float64, len(ccas))
	var maxCPU, maxMem float64
	for ci := range ccas {
		reps := make([]float64, fig2cReps)
		for r := range reps {
			reps[r] = rs[ci+r*len(ccas)].cpu
		}
		cpu[ci] = stats.Percentile(reps, 50)
		if cpu[ci] > maxCPU {
			maxCPU = cpu[ci]
		}
		if rs[ci].mem > maxMem {
			maxMem = rs[ci].mem
		}
	}
	tbl := Table{Name: "normalized overhead (max = 1.0)",
		Cols: []string{"cca", "cpu(norm)", "mem(norm)", "mem-own(B)", "cpu(frac of sim time)"}}
	for i, name := range ccas {
		tbl.AddRow(name, fmtF(cpu[i]/maxCPU, 3), fmtF(rs[i].mem/maxMem, 3),
			fmtF(rs[i].own, 0), fmtF(cpu[i], 6))
	}
	return &Report{
		ID: "fig2c", Title: "Overhead comparison", Tables: []Table{tbl},
		Notes: []string{
			fmt.Sprintf("cpu = controller compute time / simulated time, median of %d identical runs; mem = controller-resident model+buffer bytes assuming the agent is owned outright (substitution for process-level CPU/RSS, see DESIGN.md)", fig2cReps),
			"mem-own = per-flow residual beyond a shared agent: in shared deployments model bytes count once (AgentSet.MemBytes) plus mem-own per flow",
		},
	}
}
