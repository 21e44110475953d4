package exp

import (
	"time"

	"libra/internal/cc"
	"libra/internal/cc/cubic"
	"libra/internal/cc/illinois"
	"libra/internal/cc/westwood"
	"libra/internal/core"
	"libra/internal/rlcc"
	"libra/internal/trace"
)

func init() {
	Register(Experiment{
		ID:    "abl-order",
		Title: "Ablation: lower-rate-first vs higher-rate-first evaluation ordering (Fig. 4)",
		Paper: "Fig. 4 argues trying the higher rate first inflates the lower candidate's delay/loss and flips decisions; lower-first minimises the self-inflicted side effect",
		Run:   runAblOrder,
	})
	Register(Experiment{
		ID:    "abl-classics",
		Title: "Ablation: Libra over CUBIC vs Westwood vs Illinois (Sec. 7 generality)",
		Paper: "Sec. 7: the CUBIC/BBR parameter settings extend to a wide range of classic CCAs (e.g. Westwood, Illinois)",
		Run:   runAblClassics,
	})
	Register(Experiment{
		ID:    "sec7-networks",
		Title: "Discussion scenarios: satellite (long RTT, high loss) and 5G (abrupt capacity swings)",
		Paper: "Sec. 7: Libra should handle satellite's long RTT + stochastic loss and 5G's abrupt capacity fluctuation via its adaptability",
		Run:   runSec7,
	})
}

// libraVariant builds a Libra maker with full structural control.
func libraVariant(ag *AgentSet, mutate func(*core.Config)) Maker {
	return func(seed int64) cc.Controller {
		base := cc.Config{Seed: seed}.WithDefaults()
		rlCfg := rlcc.LibraRLConfig(base)
		if ag != nil {
			rlCfg.Agent = ag.LibraRL
			rlCfg.Norm = ag.LibraNorm
		}
		cfg := core.Config{
			CC:      base,
			Classic: core.NewWindowAdapter(cubic.New(base)),
			RL:      rlcc.New("libra-rl", rlCfg),
			Name:    "c-libra",
		}
		if mutate != nil {
			mutate(&cfg)
		}
		return core.New(cfg)
	}
}

func runAblOrder(rc *RunContext) *Report {
	rc.WithDefaults()
	dur := 40 * time.Second
	reps := 3
	if rc.Quick {
		dur = 12 * time.Second
		reps = 1
	}
	scens := append(WiredScenarios(dur, 24, 48), LTEScenarios(dur, rc.Seed)[:2]...)
	orders := []struct {
		name   string
		higher bool
	}{{"lower-rate-first (paper)", false}, {"higher-rate-first (ablated)", true}}

	ms := Sweep(rc, len(orders)*len(scens)*reps, func(jc *RunContext, i int) Metrics {
		oi := i / (len(scens) * reps)
		si := i / reps % len(scens)
		mk := libraVariant(jc.agents(), func(c *core.Config) { c.HigherRateFirst = orders[oi].higher })
		return jc.RunFlow(scens[si], mk, 0)
	})

	tbl := Table{Name: "evaluation ordering", Cols: []string{"order", "avg util", "avg delay(ms)", "avg loss"}}
	for oi, ord := range orders {
		var u, d, lo float64
		n := len(scens) * reps
		for k := 0; k < n; k++ {
			m := ms[oi*n+k]
			u += m.Util
			d += m.DelayMs
			lo += m.LossRate
		}
		tbl.AddRow(ord.name, fmtF(u/float64(n), 3), fmtF(d/float64(n), 0), fmtF(lo/float64(n), 4))
	}
	return &Report{ID: "abl-order", Title: "Evaluation-order ablation", Tables: []Table{tbl}}
}

func runAblClassics(rc *RunContext) *Report {
	rc.WithDefaults()
	dur := 40 * time.Second
	if rc.Quick {
		dur = 12 * time.Second
	}
	scens := append(WiredScenarios(dur, 24, 48), LTEScenarios(dur, rc.Seed)[:2]...)

	// Makers are built inside jobs, so each variant is a factory over the
	// job's agent set.
	variants := []struct {
		name string
		mk   func(ag *AgentSet) Maker
	}{
		{"c-libra (CUBIC)", func(ag *AgentSet) Maker { return mustMaker("c-libra", ag, nil) }},
		{"w-libra (Westwood)", func(ag *AgentSet) Maker {
			return libraVariant(ag, func(c *core.Config) {
				c.Classic = core.NewWindowAdapter(westwood.New(c.CC))
				c.Name = "w-libra"
			})
		}},
		{"i-libra (Illinois)", func(ag *AgentSet) Maker {
			return libraVariant(ag, func(c *core.Config) {
				c.Classic = core.NewWindowAdapter(illinois.New(c.CC))
				c.Name = "i-libra"
			})
		}},
		{"cubic alone", func(ag *AgentSet) Maker { return mustMaker("cubic", ag, nil) }},
		{"westwood alone", func(ag *AgentSet) Maker {
			return func(seed int64) cc.Controller { return westwood.New(cc.Config{Seed: seed}) }
		}},
		{"illinois alone", func(ag *AgentSet) Maker {
			return func(seed int64) cc.Controller { return illinois.New(cc.Config{Seed: seed}) }
		}},
	}

	ms := Sweep(rc, len(variants)*len(scens), func(jc *RunContext, i int) Metrics {
		return jc.RunFlow(scens[i%len(scens)], variants[i/len(scens)].mk(jc.agents()), 0)
	})

	tbl := Table{Name: "Libra over different classic CCAs (avg of 4 scenarios)",
		Cols: []string{"variant", "util", "avg delay(ms)", "loss"}}
	for vi, v := range variants {
		var u, d, lo float64
		for si := range scens {
			m := ms[vi*len(scens)+si]
			u += m.Util
			d += m.DelayMs
			lo += m.LossRate
		}
		n := float64(len(scens))
		tbl.AddRow(v.name, fmtF(u/n, 3), fmtF(d/n, 0), fmtF(lo/n, 4))
	}
	return &Report{ID: "abl-classics", Title: "Classic-CCA generality", Tables: []Table{tbl}}
}

func runSec7(rc *RunContext) *Report {
	rc.WithDefaults()
	dur := 40 * time.Second
	if rc.Quick {
		dur = 15 * time.Second
	}
	ccas := []string{"c-libra", "b-libra", "cubic", "bbr", "proteus", "orca"}

	// Satellite: geostationary-class RTT with stochastic loss.
	sat := Scenario{
		Name:     "satellite",
		Capacity: trace.Constant(trace.Mbps(20)),
		MinRTT:   600 * time.Millisecond,
		Buffer:   1_500_000,
		Loss:     0.02,
		Duration: dur,
	}
	// 5G mmWave-like: abrupt swings between very high and low capacity.
	fiveG := Scenario{
		Name: "5g",
		Capacity: &trace.Step{Period: 2 * time.Second,
			Levels: []float64{trace.Mbps(400), trace.Mbps(50), trace.Mbps(300), trace.Mbps(20)}},
		MinRTT:   20 * time.Millisecond,
		Buffer:   2_000_000,
		Duration: dur,
	}
	scens := []Scenario{sat, fiveG}

	ms := Sweep(rc, len(scens)*len(ccas), func(jc *RunContext, i int) Metrics {
		return jc.RunFlow(scens[i/len(ccas)], mustMaker(ccas[i%len(ccas)], jc.agents(), nil), 0)
	})

	var tables []Table
	for si, s := range scens {
		tbl := Table{Name: s.Name, Cols: []string{"cca", "util", "avg delay(ms)", "loss"}}
		for ci, name := range ccas {
			m := ms[si*len(ccas)+ci]
			tbl.AddRow(name, fmtF(m.Util, 3), fmtF(m.DelayMs, 0), fmtF(m.LossRate, 4))
		}
		tables = append(tables, tbl)
	}
	return &Report{ID: "sec7-networks", Title: "Satellite and 5G scenarios", Tables: tables}
}
