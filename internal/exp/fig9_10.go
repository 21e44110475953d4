package exp

import (
	"time"

	"libra/internal/trace"
)

func init() {
	Register(Experiment{
		ID:    "fig9",
		Title: "Impact of buffer size (10KB-1MB) on utilisation and delay",
		Paper: "CUBIC's delay grows with buffer (fills it); BBR slightly; Libra and Proteus reach >80% utilisation with a 30KB buffer and stay delay-flat as buffers deepen",
		Run:   runFig9,
	})
	Register(Experiment{
		ID:    "fig10",
		Title: "Impact of stochastic loss (0-10%) on link utilisation",
		Paper: "B-Libra holds 81.9% utilisation at 10% loss; C-Libra beats CUBIC and Orca throughout; CUBIC collapses early",
		Run:   runFig10,
	})
}

func runFig9(rc *RunContext) *Report {
	rc.WithDefaults()
	dur := 40 * time.Second
	if rc.Quick {
		dur = 12 * time.Second
	}
	buffers := []int{10_000, 30_000, 100_000, 300_000, 1_000_000}
	ccas := []string{"proteus", "bbr", "copa", "cubic", "orca", "c-libra", "b-libra"}

	ms := Sweep(rc, len(ccas)*len(buffers), func(jc *RunContext, i int) Metrics {
		s := Scenario{
			Name:     "buffer-sweep",
			Capacity: trace.Constant(trace.Mbps(60)),
			MinRTT:   100 * time.Millisecond,
			Buffer:   buffers[i%len(buffers)],
			Duration: dur,
		}
		return jc.RunFlow(s, CCAMaker(ccas[i/len(buffers)], nil)(jc), 0)
	})

	util := Table{Name: "link utilisation vs buffer", Cols: append([]string{"cca"}, bufNames(buffers)...)}
	delay := Table{Name: "avg delay (ms) vs buffer", Cols: append([]string{"cca"}, bufNames(buffers)...)}
	for ci, name := range ccas {
		ru := []string{name}
		rd := []string{name}
		for bi := range buffers {
			m := ms[ci*len(buffers)+bi]
			ru = append(ru, fmtF(m.Util, 2))
			rd = append(rd, fmtF(m.DelayMs, 0))
		}
		util.AddRow(ru...)
		delay.AddRow(rd...)
	}
	return &Report{ID: "fig9", Title: "Buffer-size sensitivity", Tables: []Table{util, delay}}
}

func bufNames(bs []int) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = fmtF(float64(b)/1000, 0) + "KB"
	}
	return out
}

func runFig10(rc *RunContext) *Report {
	rc.WithDefaults()
	dur := 40 * time.Second
	if rc.Quick {
		dur = 12 * time.Second
	}
	losses := []float64{0, 0.02, 0.04, 0.06, 0.08, 0.10}
	ccas := []string{"proteus", "bbr", "copa", "cubic", "orca", "c-libra", "b-libra"}

	ms := Sweep(rc, len(ccas)*len(losses), func(jc *RunContext, i int) Metrics {
		s := Scenario{
			Name:     "loss-sweep",
			Capacity: trace.Constant(trace.Mbps(48)),
			MinRTT:   40 * time.Millisecond,
			Buffer:   240_000,
			Loss:     losses[i%len(losses)],
			Duration: dur,
		}
		return jc.RunFlow(s, CCAMaker(ccas[i/len(losses)], nil)(jc), 0)
	})

	tbl := Table{Name: "link utilisation vs stochastic loss", Cols: append([]string{"cca"}, lossNames(losses)...)}
	for ci, name := range ccas {
		row := []string{name}
		for li := range losses {
			row = append(row, fmtF(ms[ci*len(losses)+li].Util, 2))
		}
		tbl.AddRow(row...)
	}
	return &Report{ID: "fig10", Title: "Stochastic-loss sensitivity", Tables: []Table{tbl}}
}

func lossNames(ls []float64) []string {
	out := make([]string, len(ls))
	for i, l := range ls {
		out[i] = fmtF(l*100, 0) + "%"
	}
	return out
}
