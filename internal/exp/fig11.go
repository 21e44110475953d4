package exp

import (
	"time"

	"libra/internal/trace"
	"libra/internal/utility"
)

func init() {
	Register(Experiment{
		ID:    "fig11",
		Title: "Flexibility: utility-weight variants tune the throughput/latency trade-off",
		Paper: "Th/La variants move Libra along the frontier; vs one CUBIC flow, C-Libra takes 48.4-74.1% and B-Libra 35.5-49.6% of bandwidth depending on weights",
		Run:   runFig11,
	})
}

// utilityVariants returns the Sec. 5.2 preference set.
func utilityVariants() []struct {
	Name string
	U    utility.Func
} {
	return []struct {
		Name string
		U    utility.Func
	}{
		{"Th-2", utility.Throughput2()},
		{"Th-1", utility.Throughput1()},
		{"Default", utility.Default()},
		{"La-1", utility.Latency1()},
		{"La-2", utility.Latency2()},
	}
}

func runFig11(rc *RunContext) *Report {
	rc.WithDefaults()
	dur := 40 * time.Second
	if rc.Quick {
		dur = 12 * time.Second
	}
	variants := utilityVariants()
	libras := []string{"c-libra", "b-libra"}

	starved := 0
	single := func(name string, ss []Scenario) Table {
		tbl := Table{Name: name, Cols: []string{"variant", "util", "avg delay(ms)"}}
		// One job per (libra variant, utility, scenario) flow.
		ms := Sweep(rc, len(libras)*len(variants)*len(ss), func(jc *RunContext, i int) Metrics {
			li := i / (len(variants) * len(ss))
			vi := i / len(ss) % len(variants)
			return jc.RunFlow(ss[i%len(ss)], CCAMaker(libras[li], variants[vi].U)(jc), 0)
		})
		for li, lname := range libras {
			for vi, v := range variants {
				var u float64
				var d delayMean
				for si := range ss {
					m := ms[(li*len(variants)+vi)*len(ss)+si]
					u += m.Util
					d.add(m)
				}
				starved += d.starved
				tbl.AddRow(lname+"-"+v.Name, fmtF(u/float64(len(ss)), 3), d.format(0))
			}
		}
		return tbl
	}

	wired := WiredScenarios(dur, 24, 48)
	cell := LTEScenarios(dur, rc.Seed)[:2]
	t1 := single("(a) single flow, wired", wired)
	t2 := single("(b) single flow, cellular", cell)

	// (c)/(d): one Libra flow vs one CUBIC flow — throughput share.
	compete := func(name string, s Scenario) Table {
		tbl := Table{Name: name, Cols: []string{"variant", "libra share", "avg delay(ms)"}}
		type res struct{ share, delay float64 }
		rs := Sweep(rc, len(libras)*len(variants), func(jc *RunContext, i int) res {
			li, vi := i/len(variants), i%len(variants)
			ms := jc.RunFlows(s,
				[]Maker{CCAMaker(libras[li], variants[vi].U)(jc), CCAMaker("cubic", nil)(jc)},
				[]time.Duration{0, 0}, 0)
			return res{share: ms[0].ThrMbps / (ms[0].ThrMbps + ms[1].ThrMbps), delay: ms[0].DelayMs}
		})
		for li, lname := range libras {
			for vi, v := range variants {
				r := rs[li*len(variants)+vi]
				tbl.AddRow(lname+"-"+v.Name, fmtF(r.share, 3), fmtF(r.delay, 0))
			}
		}
		return tbl
	}
	t3 := compete("(c) vs CUBIC, wired 48Mbps", Scenario{
		Capacity: trace.Constant(trace.Mbps(48)), MinRTT: 40 * time.Millisecond,
		Buffer: 240_000, Duration: dur,
	})
	t4 := compete("(d) vs CUBIC, cellular", Scenario{
		Capacity: trace.NewLTE(trace.LTEStationary, dur, rc.Seed+5),
		MinRTT:   30 * time.Millisecond, Buffer: 150_000, Duration: dur,
	})

	return &Report{ID: "fig11", Title: "Flexibility via utility weights",
		Tables: []Table{t1, t2, t3, t4},
		Notes: append([]string{"0.5 share = fair split vs CUBIC; Th variants should sit above La variants"},
			starvedNotes(starved)...)}
}
