package exp

import (
	"time"

	"libra/internal/trace"
)

func init() {
	Register(Experiment{
		ID:    "app-mix",
		Title: "Mixed application classes: bulk CCA sharing with a delay-sensitive stream",
		Paper: "Intro motivation: throughput-oriented (storage replication) and delay-sensitive (VR/cloud gaming) traffic coexist; a modern CCA should serve both",
		Run:   runAppMix,
	})
}

// runAppMix shares a bottleneck between one bulk flow (CCA under test)
// and one 4 Mbps application-limited stream (a latency-sensitive
// client running a plain conservative controller, placed as cross
// traffic). It reports the stream's delay and loss under each bulk
// neighbour: a delay-aware bulk CCA leaves the stream usable, a
// buffer-filler does not.
func runAppMix(rc *RunContext) *Report {
	rc.WithDefaults()
	dur := 30 * time.Second
	if rc.Quick {
		dur = 10 * time.Second
	}
	bulkCCAs := []string{"c-libra", "b-libra", "cubic", "bbr", "copa", "proteus"}
	ts := bottleneckTopo(TopoLink{CapMbps: 24, DelayMs: 20, Buffer: 300_000})
	ts.Cross = []CrossFlow{{Route: ts.Main, CCA: "vegas", RateMbps: 4}}
	s := Scenario{Name: "app-mix", Duration: dur, Topo: ts}

	ms := Sweep(rc, len(bulkCCAs), func(jc *RunContext, i int) Metrics {
		return jc.RunFlow(s, CCAMaker(bulkCCAs[i], nil)(jc), 0)
	})

	tbl := Table{Name: "bulk neighbour's effect on a 4 Mbps stream (24 Mbps / 40 ms / 300 KB buffer)",
		Cols: []string{"bulk cca", "bulk thr(Mbps)", "stream thr(Mbps)", "stream delay(ms)", "stream loss"}}
	for i, name := range bulkCCAs {
		m := ms[i]
		if m.Failed {
			tbl.AddRow(name, "failed", "-", "-", "-")
			continue
		}
		stream := m.Topo.Flows()[1].Stats
		tbl.AddRow(name, fmtF(m.ThrMbps, 1), fmtF(trace.ToMbps(stream.AvgThroughput()), 2),
			fmtF(float64(stream.AvgRTT())/float64(time.Millisecond), 0), fmtF(stream.LossRate(), 4))
	}
	return &Report{ID: "app-mix", Title: "Application-mix coexistence", Tables: []Table{tbl},
		Notes: []string{"the stream is a 4 Mbps app-limited Vegas client; its delay is set by the queue the bulk flow maintains"}}
}
