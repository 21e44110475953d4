// Cloudgaming: a delay-sensitive workload (VR/AR, cloud gaming — the
// paper's latency-critical class) over a cellular link. The La-2
// utility keeps queueing delay low where CUBIC bufferbloats; we report
// the fraction of "frames" (RTT samples) within a 100 ms budget.
package main

import (
	"fmt"
	"time"

	"libra"
)

const (
	dur    = 30 * time.Second
	budget = 100.0 // ms round-trip budget for an interactive frame
)

func run(label string, mk func() libra.Controller) {
	net := libra.NewNetwork(libra.NetworkConfig{
		Capacity:     libra.LTE("walking", dur, 11),
		MinRTT:       30 * time.Millisecond,
		BufferBytes:  300_000, // deep cellular buffer: bufferbloat risk
		Seed:         3,
		SeriesBucket: time.Second,
	})
	flow := net.AddFlow(mk(), 0, 0)
	net.Run(dur)

	// Fraction of seconds whose mean RTT met the interactivity budget.
	met, total := 0, 0
	for t := 0; t < int(dur/time.Second); t++ {
		d := flow.Stats.Delay.Mean(t)
		if d == 0 {
			continue
		}
		total++
		if d <= budget {
			met++
		}
	}
	fmt.Printf("%-16s %5.1f Mbps  avg RTT %-6v  %3.0f%% of seconds within %v ms budget\n",
		label, libra.ToMbps(flow.Stats.AvgThroughput()),
		flow.Stats.AvgRTT().Round(time.Millisecond),
		100*float64(met)/float64(total), budget)
}

func main() {
	fmt.Println("interactive streaming over a walking LTE channel (deep 300 KB buffer)")
	fmt.Println("training Libra's RL component (~40 episodes)...")
	trained := libra.TrainLibraAgent(2, 40, 8*time.Second)
	fmt.Println()
	run("libra (La-2)", func() libra.Controller {
		return libra.New(libra.WithCubic(), libra.WithSeed(5), trained,
			libra.WithUtility(libra.LatencyOriented(2)))
	})
	run("libra (default)", func() libra.Controller {
		return libra.New(libra.WithCubic(), libra.WithSeed(5), trained)
	})
	run("cubic", func() libra.Controller { return libra.Baseline("cubic", 5) })
	run("bbr", func() libra.Controller { return libra.Baseline("bbr", 5) })
	fmt.Println("\nThe latency-oriented utility biases Libra's per-cycle argmax towards")
	fmt.Println("lower-queueing candidates, trading a little throughput for delay.")
}
