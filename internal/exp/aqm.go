package exp

import (
	"time"
)

func init() {
	Register(Experiment{
		ID:    "aqm",
		Title: "Motivation contrast: CUBIC needs in-network CoDel for low delay; Libra is end-to-end",
		Paper: "Sec. 2: 'it is not feasible to maintain a low queuing delay for CUBIC without the involvement of AQM schemes (e.g., CoDel) which requires changes in the network devices'",
		Run:   runAQM,
	})
}

func runAQM(rc *RunContext) *Report {
	rc.WithDefaults()
	dur := 30 * time.Second
	if rc.Quick {
		dur = 12 * time.Second
	}
	cases := []struct {
		label string
		cca   string
		codel bool
	}{
		{"cubic / droptail", "cubic", false},
		{"cubic / CoDel", "cubic", true},
		{"bbr / droptail", "bbr", false},
		{"c-libra / droptail", "c-libra", false},
		{"b-libra / droptail", "b-libra", false},
	}

	ms := Sweep(rc, len(cases), func(jc *RunContext, i int) Metrics {
		c := cases[i]
		s := Scenario{
			Name:     "aqm-droptail",
			Duration: dur,
			// deep buffer: 200 ms when filled
			Topo: bottleneckTopo(TopoLink{CapMbps: 24, DelayMs: 20, Buffer: 600_000, CoDel: c.codel}),
		}
		if c.codel {
			s.Name = "aqm-codel"
		}
		return jc.RunFlow(s, CCAMaker(c.cca, nil)(jc), 0)
	})

	tbl := Table{Name: "deep-buffered 24 Mbps / 40 ms path",
		Cols: []string{"setup", "util", "avg delay(ms)", "aqm drops"}}
	for i, c := range cases {
		m := ms[i]
		if m.Failed {
			tbl.AddRow(c.label, "failed", "-", "-")
			continue
		}
		drops := m.Topo.Links()[0].DropStats().AQM
		tbl.AddRow(c.label, fmtF(m.Util, 3), fmtF(m.DelayMs, 0), fmtF(float64(drops), 0))
	}
	return &Report{ID: "aqm", Title: "AQM contrast", Tables: []Table{tbl},
		Notes: []string{"the paper's flexibility argument: matching CoDel-grade delay without touching network devices"}}
}
