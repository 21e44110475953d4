package exp

import (
	"time"

	"libra/internal/trace"
)

func init() {
	Register(Experiment{
		ID:    "fig8",
		Title: "Capacity tracking over a driving LTE trace",
		Paper: "Libra follows the changing capacity; CUBIC over-/under-shoots at 20-30s, Orca at 20-25s, BBR at 10-15s; Proteus cannot follow",
		Run:   runFig8,
	})
}

func runFig8(rc *RunContext) *Report {
	rc.WithDefaults()
	dur := 35 * time.Second
	if rc.Quick {
		dur = 20 * time.Second
	}
	tour := trace.NewDrivingTour(dur, rc.Seed+99)
	s := Scenario{Name: "driving-tour", Capacity: tour, MinRTT: 30 * time.Millisecond,
		Buffer: 150_000, Duration: dur}
	ccas := []string{"c-libra", "b-libra", "proteus", "cubic", "bbr", "orca"}

	tbl := Table{Name: "throughput (Mbps) per second vs capacity",
		Cols: append([]string{"t(s)", "capacity"}, ccas...)}
	series := Sweep(rc, len(ccas), func(jc *RunContext, i int) []float64 {
		m := jc.RunFlow(s, CCAMaker(ccas[i], nil)(jc), time.Second)
		return m.Flow.Stats.Throughput.Rates(int(dur / time.Second))
	})
	for t := 0; t < int(dur/time.Second); t++ {
		capMbps := trace.ToMbps(trace.MeanRate(offsetTrace{tour, time.Duration(t) * time.Second}, time.Second, 100*time.Millisecond))
		row := []string{fmtF(float64(t), 0), fmtF(capMbps, 1)}
		for i := range ccas {
			row = append(row, fmtF(trace.ToMbps(series[i][t]), 1))
		}
		tbl.AddRow(row...)
	}
	// Tracking error summary: mean |thr - capacity| per CCA.
	sum := Table{Name: "mean absolute tracking error (Mbps)", Cols: []string{"cca", "error"}}
	for i, name := range ccas {
		var e float64
		n := 0
		for t := 2; t < int(dur/time.Second); t++ { // skip startup
			capR := trace.MeanRate(offsetTrace{tour, time.Duration(t) * time.Second}, time.Second, 100*time.Millisecond)
			d := trace.ToMbps(series[i][t]) - trace.ToMbps(capR)
			if d < 0 {
				d = -d
			}
			e += d
			n++
		}
		sum.AddRow(name, fmtF(e/float64(n), 2))
	}
	return &Report{ID: "fig8", Title: "Following the changing LTE capacity", Tables: []Table{tbl, sum}}
}

// offsetTrace shifts a trace in time so MeanRate can average one
// second starting at the offset.
type offsetTrace struct {
	tr  trace.Trace
	off time.Duration
}

func (o offsetTrace) RateAt(t time.Duration) float64 { return o.tr.RateAt(t + o.off) }
func (o offsetTrace) Duration() time.Duration        { return o.tr.Duration() }
