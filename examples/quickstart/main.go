// Quickstart: run one Libra (C-Libra) flow over a step-changing link —
// the paper's Fig. 2(a) scenario — and watch it track the capacity.
package main

import (
	"fmt"
	"time"

	"libra"
)

func main() {
	const dur = 40 * time.Second

	// The step scenario: capacity changes every 10 seconds.
	capacity := libra.StepMbps(10*time.Second, 20, 5, 15, 10)

	net := libra.NewNetwork(libra.NetworkConfig{
		Capacity:     capacity,
		MinRTT:       80 * time.Millisecond,
		BufferBytes:  150_000,
		Seed:         1,
		SeriesBucket: time.Second,
	})

	sender := libra.New(libra.WithCubic(), libra.WithSeed(2), libra.WithCycleLog())
	flow := net.AddFlow(sender, 0, 0)
	net.Run(dur)

	fmt.Println("t(s)  capacity  libra(Mbps)")
	for t := 0; t < int(dur/time.Second); t += 2 {
		at := time.Duration(t) * time.Second
		fmt.Printf("%-5d %-9.1f %.1f\n", t,
			libra.ToMbps(capacity.RateAt(at)),
			libra.ToMbps(flow.Stats.Throughput.Rate(t)))
	}

	tel := sender.Telemetry()
	fmt.Printf("\navg throughput: %.1f Mbps, avg RTT: %v, loss: %.2f%%\n",
		libra.ToMbps(flow.Stats.AvgThroughput()),
		flow.Stats.AvgRTT().Round(time.Millisecond),
		flow.Stats.LossRate()*100)
	fmt.Printf("control cycles: %d (x_prev won %.0f%%, x_cl %.0f%%, x_rl %.0f%%)\n",
		tel.Cycles, tel.Fraction(0)*100, tel.Fraction(1)*100, tel.Fraction(2)*100)
}
