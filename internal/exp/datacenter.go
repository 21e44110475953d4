package exp

import (
	"fmt"
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
	notes := []string{"DCTCP and D-Libra should hold delay near the marking threshold; loss-based CCAs fill the 500KB buffer (40ms)"}
	if starved > 0 {
		notes = append(notes, fmt.Sprintf("%d flow(s) got no RTT sample and are left out of avg delay ('-' when a CCA has none): a starved flow has no delay to average, not a low one", starved))
	}
	return &Report{ID: "sec7-datacenter", Title: "Datacenter ECN scenario",
		Tables: []Table{tbl}, Notes: notes}
}

// sec7Table builds the per-CCA table from each CCA's flows and returns
// it with the number of flows that got no RTT sample. Those flows are
// left out of the delay average, because their zero mean RTT would
// read as low delay.
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
		var dsum float64
		sampled := 0
		for fi, m := range ms {
			thr[fi] = m.Flow.Stats.AvgThroughput()
			if m.Flow.Stats.RTTCount > 0 {
				dsum += m.DelayMs
				sampled++
			}
		}
		starved += len(ms) - sampled
		delay := "-"
		if sampled > 0 {
			delay = fmtF(dsum/float64(sampled), 2)
		}
		tbl.AddRow(name, fmtF(ms[0].Util, 3), delay, fmtF(stats.JainIndex(thr), 3))
	}
	return tbl, starved
}
