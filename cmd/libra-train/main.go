// Command libra-train trains the PPO policies used by the
// learning-based CCAs (Libra's RL component, Orca, Aurora, Mod-RL) on
// randomized emulated networks, reporting the learning curves and
// saving the actor networks for libra-bench -models.
//
// Usage:
//
//	libra-train -out models/ [-episodes 600] [-eplen 20s] [-paper] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"libra/internal/cc"
	"libra/internal/cliutil"
	"libra/internal/exp"
	"libra/internal/rlcc"
)

func main() {
	var (
		out      = flag.String("out", "models", "output directory for trained models")
		episodes = flag.Int("episodes", 0, "training episodes per agent (0 = spec default)")
		epLen    = flag.Duration("eplen", 0, "simulated seconds per episode (0 = spec default)")
		paper    = flag.Bool("paper", false, "use the paper's full training ranges (slower)")
		seed     = flag.Int64("seed", 1, "random seed")
		rig      = cliutil.AddRig(flag.CommandLine)
	)
	flag.Parse()

	rc, err := rig.Open(*seed, nil)
	if err != nil {
		fatal(err)
	}

	spec := exp.QuickTrainSpec(*seed)
	if *paper {
		spec = exp.FullTrainSpec(*seed)
	}
	spec.Workers = rc.Workers
	if *episodes > 0 {
		spec.Episodes = *episodes
	}
	if *epLen > 0 {
		spec.EpisodeLen = *epLen
	}

	fmt.Printf("training 4 agents: %d episodes x %s each (env: %.0f-%.0f Mbps, %s-%s RTT, loss up to %.0f%%)\n",
		spec.Episodes, spec.EpisodeLen,
		spec.Env.CapacityMbps[0], spec.Env.CapacityMbps[1],
		spec.Env.RTT[0], spec.Env.RTT[1], spec.Env.LossRate[1]*100)

	// One demonstration learning curve (Libra's RL component), then the
	// full agent set for persistence. The curve trains a quarter of the
	// episodes, at least one: rlcc.Train reads 0 as its own default.
	fmt.Println("-- libra-rl learning curve --")
	start := time.Now()
	rlcc.Train(rlcc.TrainConfig{
		Episodes:   max(spec.Episodes/4, 1),
		EpisodeLen: spec.EpisodeLen,
		Env:        &spec.Env,
		Ctrl:       rlcc.LibraRLConfig(baseCfg(*seed)),
		Seed:       spec.Seed,
		Tracer:     rc.Tracer,
		Health:     rc.Health,
		OnEpisode: func(i int, reward float64) {
			if (i+1)%10 == 0 || i == 0 {
				fmt.Printf("  episode %4d  reward %8.2f\n", i+1, reward)
			}
		},
	})
	fmt.Printf("  done in %.1fs\n", time.Since(start).Seconds())

	fmt.Println("training the 4-agent set for persistence...")
	set := exp.TrainAgentSet(spec)
	if err := set.Save(*out); err != nil {
		fatal(fmt.Errorf("save: %w", err))
	}
	// Round-trip check: a model directory that cannot be loaded back
	// through the validated loader is worse than no directory at all,
	// so fail loudly now rather than at the consumer's first -models run.
	if _, err := exp.LoadAgentSet(*out, *seed); err != nil {
		fatal(fmt.Errorf("saved models fail to reload: %w", err))
	}
	fmt.Printf("saved models to %s (use: libra-bench -models %s)\n", *out, *out)

	if err := rig.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func baseCfg(seed int64) cc.Config { return cc.Config{Seed: seed} }
