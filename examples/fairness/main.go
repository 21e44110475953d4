// Fairness: three Libra flows enter a shared 48 Mbps bottleneck five
// seconds apart (the paper's Fig. 15 setup) and converge to an even
// split — the convergence/fairness property of Theorem 4.1.
package main

import (
	"fmt"
	"time"

	"libra"
)

func main() {
	const dur = 45 * time.Second
	net := libra.NewNetwork(libra.NetworkConfig{
		Capacity:     libra.ConstantMbps(48),
		MinRTT:       100 * time.Millisecond,
		BufferBytes:  600_000, // 1 BDP
		Seed:         2,
		SeriesBucket: time.Second,
	})

	fmt.Println("training Libra's RL component (~60 episodes)...")
	trained := libra.TrainLibraAgent(4, 60, 8*time.Second)

	var flows []*libra.Flow
	for i := 0; i < 3; i++ {
		s := libra.New(libra.WithCubic(), libra.WithSeed(int64(10+i)), trained)
		flows = append(flows, net.AddFlow(s, time.Duration(i)*5*time.Second, 0))
	}
	net.Run(dur)

	fmt.Println("t(s)  flow1  flow2  flow3   (Mbps; flows enter at 0s, 5s, 10s)")
	for t := 0; t < int(dur/time.Second); t += 3 {
		fmt.Printf("%-5d", t)
		for _, f := range flows {
			fmt.Printf(" %6.1f", libra.ToMbps(f.Stats.Throughput.Rate(t)))
		}
		fmt.Println()
	}

	// Jain's fairness index over the window after all flows are up.
	var thr [3]float64
	for i, f := range flows {
		for t := 20; t < int(dur/time.Second); t++ {
			thr[i] += f.Stats.Throughput.Rate(t)
		}
	}
	sum := thr[0] + thr[1] + thr[2]
	sq := thr[0]*thr[0] + thr[1]*thr[1] + thr[2]*thr[2]
	jain := sum * sum / (3 * sq)
	fmt.Printf("\nJain's fairness index over t=20s..%ds: %.3f (1.0 = perfectly fair)\n",
		int(dur/time.Second), jain)
}
