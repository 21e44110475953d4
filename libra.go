// Package libra is the public API of this repository: a from-scratch Go
// reproduction of "A Unified Congestion Control Framework for Diverse
// Application Preferences and Network Conditions" (CoNEXT 2021).
//
// Libra combines a classic congestion-control algorithm (CUBIC or BBR)
// with a PPO-trained reinforcement-learning agent under a three-stage
// utility-driven control cycle: explore the network with the classic
// CCA while the RL agent proposes a backup rate, evaluate both
// candidate rates (lower first), then exploit the previous winner while
// the evaluation feedback drains back, and finally adopt the candidate
// with the highest utility.
//
// Quick start:
//
//	sender := libra.New(libra.WithCubic())
//	net := libra.NewNetwork(libra.NetworkConfig{
//	    Capacity: libra.ConstantMbps(48),
//	    MinRTT:   40 * time.Millisecond,
//	})
//	flow := net.AddFlow(sender, 0, 0)
//	net.Run(30 * time.Second)
//	fmt.Println(flow.Stats.AvgThroughput())
//
// The package also exposes every baseline CCA the paper compares
// against (Controller), the trace generators behind its workloads, and
// the experiment registry that regenerates each of its tables and
// figures (Experiments / RunExperiment).
package libra

import (
	"time"

	"libra/internal/cc"
	"libra/internal/cc/cubic"
	"libra/internal/core"
	"libra/internal/exp"
	"libra/internal/netem"
	"libra/internal/rlcc"
	"libra/internal/trace"
	"libra/internal/utility"
)

// Sender is a Libra congestion controller (the paper's Alg. 1).
type Sender = core.Libra

// Controller is the interface every congestion-control algorithm in
// this repository implements.
type Controller = cc.Controller

// Utility scores a monitor interval; it encodes the application
// preference (Eq. 1).
type Utility = utility.Func

// Option customises a Libra sender.
type Option func(*core.Config)

// WithCubic selects CUBIC as the classic component (C-Libra, default).
func WithCubic() Option {
	return func(c *core.Config) {
		c.Classic = core.NewWindowAdapter(cubic.New(c.CC))
		c.Name = "c-libra"
	}
}

// WithBBR selects BBR as the classic component (B-Libra).
func WithBBR() Option {
	return func(c *core.Config) {
		c.Classic = core.NewBBRAdapter(c.CC)
		c.Name = "b-libra"
	}
}

// WithUtility installs a custom utility function.
func WithUtility(u Utility) Option {
	return func(c *core.Config) { c.Util = u }
}

// WithSeed seeds the sender's stochastic components.
func WithSeed(seed int64) Option {
	return func(c *core.Config) { c.CC.Seed = seed }
}

// WithCycleLog enables per-control-cycle telemetry (Sender.CycleLog).
func WithCycleLog() Option {
	return func(c *core.Config) { c.RecordCycles = true }
}

// New builds a Libra sender. With no options it is C-Libra with the
// paper's default parameters (th1 = 0.3x, EI = 0.5 RTT, Eq. 1 utility
// with t=0.9, alpha=1, beta=900, gamma=11.35).
func New(opts ...Option) *Sender {
	cfg := core.Config{CC: cc.Config{}.WithDefaults()}
	for _, o := range opts {
		o(&cfg)
	}
	return core.New(cfg)
}

// Preference utilities (Sec. 5.2). Level 1 doubles and level 2 triples
// the corresponding weight relative to the default.

// DefaultUtility returns the paper's Eq. 1 with default weights.
func DefaultUtility() Utility { return utility.Default() }

// ThroughputOriented returns the Th-1 (level 1) or Th-2 (level 2)
// preference.
func ThroughputOriented(level int) Utility {
	if level >= 2 {
		return utility.Throughput2()
	}
	return utility.Throughput1()
}

// LatencyOriented returns the La-1 (level 1) or La-2 (level 2)
// preference.
func LatencyOriented(level int) Utility {
	if level >= 2 {
		return utility.Latency2()
	}
	return utility.Latency1()
}

// NetworkConfig describes an emulated single-bottleneck path — the
// two-node/one-link degenerate case of netem's multi-hop Topology.
type NetworkConfig = netem.Config

// Network is the packet-level network emulation.
type Network = netem.Network

// Flow is one sender attached to a Network.
type Flow = netem.Flow

// NewNetwork builds an emulated network.
func NewNetwork(cfg NetworkConfig) *Network { return netem.New(cfg) }

// Trace is a time-varying capacity model.
type Trace = trace.Trace

// ConstantMbps returns a fixed-capacity trace.
func ConstantMbps(mbps float64) Trace { return trace.Constant(trace.Mbps(mbps)) }

// StepMbps returns a trace cycling through the levels, holding each for
// period (the paper's step scenario).
func StepMbps(period time.Duration, levelsMbps ...float64) Trace {
	levels := make([]float64, len(levelsMbps))
	for i, m := range levelsMbps {
		levels[i] = trace.Mbps(m)
	}
	return &trace.Step{Period: period, Levels: levels}
}

// LTE returns a synthetic cellular trace. Scenario is "stationary",
// "walking", or "driving".
func LTE(scenario string, d time.Duration, seed int64) Trace {
	sc := trace.LTEStationary
	switch scenario {
	case "walking":
		sc = trace.LTEWalking
	case "driving":
		sc = trace.LTEDriving
	}
	return trace.NewLTE(sc, d, seed)
}

// Mbps converts megabits/second to the bytes/second unit used
// throughout the API; ToMbps converts back.
func Mbps(v float64) float64   { return trace.Mbps(v) }
func ToMbps(v float64) float64 { return trace.ToMbps(v) }

// Baseline constructs one of the comparison CCAs by name: cubic, bbr,
// reno, vegas, copa, sprout, vivace, proteus, remy, indigo, aurora,
// orca, mod-rl, westwood, illinois, dctcp, or the Libra variants
// c-libra, b-libra, cl-libra, w-libra, i-libra, d-libra (see
// Baselines for the authoritative list). Unknown names return nil.
func Baseline(name string, seed int64) Controller {
	mk, err := exp.MakerFor(name, nil, nil)
	if err != nil {
		return nil
	}
	return mk(seed)
}

// Baselines lists the available comparison CCAs.
func Baselines() []string { return append([]string(nil), exp.CCASet...) }

// TrainLibraAgent trains the RL component on randomized emulated
// networks (the paper's offline training step) and returns a sender
// option installing it.
func TrainLibraAgent(seed int64, episodes int, episodeLen time.Duration) Option {
	res := rlcc.Train(rlcc.TrainConfig{
		Episodes:   episodes,
		EpisodeLen: episodeLen,
		Ctrl:       rlcc.LibraRLConfig(cc.Config{Seed: seed}),
		Seed:       seed,
	})
	return func(c *core.Config) {
		rlCfg := rlcc.LibraRLConfig(c.CC)
		rlCfg.Agent = res.Agent
		rlCfg.Norm = res.Norm
		c.RL = rlcc.New("libra-rl", rlCfg)
	}
}

// Experiment is one reproducible paper artifact (a table or figure).
type Experiment = exp.Experiment

// Experiments lists every registered paper experiment.
func Experiments() []Experiment { return exp.All() }

// RunExperiment regenerates one paper table/figure and returns its
// textual report. Quick mode shrinks durations for CI-scale runs.
func RunExperiment(id string, quick bool, seed int64) (string, bool) {
	e, ok := exp.Get(id)
	if !ok {
		return "", false
	}
	rc := exp.NewRunContext(seed)
	rc.Quick = quick
	return e.Run(rc).String(), true
}
