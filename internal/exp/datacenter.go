package exp

import (
	"time"

	"libra/internal/stats"
)

func init() {
	Register(Experiment{
		ID:    "sec7-datacenter",
		Title: "Discussion scenario: ECN datacenter fabric — DCTCP vs D-Libra vs CUBIC",
		Paper: "Sec. 7: Libra can replace its classic counterpart with CCAs designed for specific networks to leverage new properties (e.g., ECN marking) in datacenters",
		Run:   runSec7DC,
	})
}

func runSec7DC(rc *RunContext) *Report {
	rc.WithDefaults()
	dur := 5 * time.Second
	if rc.Quick {
		dur = 2 * time.Second
	}
	const nFlows = 4
	ccas := []string{"dctcp", "d-libra", "c-libra", "cubic", "reno"}
	s := Scenario{
		Name:     "dc-ecn-fabric",
		Duration: dur,
		Topo:     bottleneckTopo(TopoLink{CapMbps: 100, DelayMs: 0.5, Buffer: 500_000, ECN: 32_000}),
	}

	rs := Sweep(rc, len(ccas), func(jc *RunContext, i int) []Metrics {
		mk := CCAMaker(ccas[i], nil)(jc)
		mks := make([]Maker, nFlows)
		for fi := range mks {
			mks[fi] = mk
		}
		return jc.RunFlows(s, mks, nil, 0)
	})

	tbl, starved := sec7Table(ccas, rs)
	notes := append([]string{"DCTCP and D-Libra should hold delay near the marking threshold; loss-based CCAs fill the 500KB buffer (40ms)"},
		starvedNotes(starved)...)
	return &Report{ID: "sec7-datacenter", Title: "Datacenter ECN scenario",
		Tables: []Table{tbl}, Notes: notes}
}

// sec7Table builds the per-CCA table from each CCA's flows and returns
// it with the number of flows left out of the delay averages (see
// delayMean).
func sec7Table(ccas []string, rs [][]Metrics) (Table, int) {
	tbl := Table{Name: "4 flows, 100 Mbps / 1 ms RTT fabric, ECN mark at 32 KB",
		Cols: []string{"cca", "util", "avg delay(ms)", "jain"}}
	starved := 0
	for i, name := range ccas {
		ms := rs[i]
		if ms[0].Failed {
			tbl.AddRow(name, "failed", "-", "-")
			continue
		}
		thr := make([]float64, len(ms))
		var d delayMean
		for fi, m := range ms {
			thr[fi] = m.Flow.Stats.AvgThroughput()
			d.add(m)
		}
		starved += d.starved
		tbl.AddRow(name, fmtF(ms[0].Util, 3), d.format(2), fmtF(stats.JainIndex(thr), 3))
	}
	return tbl, starved
}
