package main

import (
	"fmt"
	"time"

	"libra/internal/exp"
	"libra/internal/lab"
	"libra/internal/sweep"
	"libra/internal/trace"
)

// Job is one independent engine run: main flows of the named
// controllers, co-started on one scenario, in a job context seeded
// with Seed. Jobs are plain data so plans can be compared.
type Job struct {
	Seed     int64
	Scenario exp.Scenario
	CCAs     []string
}

// Plan is a workload's input for one pass: either jobs run through one
// exp.Sweep and RunFlow/RunFlows, or one lab tournament.
type Plan struct {
	Jobs       []Job
	Tournament *lab.TournamentConfig
}

// Size selects the full inputs of the timed passes or the scaled-down
// sub-plan of the worker-count check and the self-tests.
type Size int

const (
	Full Size = iota
	Small
)

// Workload is one named input set. Plan must be a pure function of its
// arguments. A workload whose plan is a tournament runs with the
// operator's telemetry rig attached, as libra-lab runs its
// tournaments.
type Workload struct {
	Name string
	Why  string
	Plan func(seed int64, size Size) Plan
}

// workloads lists the benchmark's workloads in BENCHMARK.json order.
var workloads = []Workload{
	{
		Name: "paper-quick",
		Why:  "fig7+fig13+fig17 job sets at -quick with shipped models: per-ACK in-flight shift, engine heap, BBR filter and the Libra cycle; the batcher forms no GEMM",
		Plan: paperQuickPlan,
	},
	{
		Name: "dc-fabric",
		Why:  "datacenter-ecn fabric, 64 co-started RL/Libra/DCTCP flows per job: RL ticks align so the batcher forms GEMMs, tiny windows, Aurora floods the drop path",
		Plan: dcFabricPlan,
	},
	{
		Name: "lab-traced",
		Why:  "lab tournament with the operator's telemetry rig attached: the only workload running sinks, analyze, faults, the lab search and (traced) training",
		Plan: labTracedPlan,
	},
}

// workloadByName resolves a workload name.
func workloadByName(name string) (Workload, error) {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		if w.Name == name {
			return w, nil
		}
		names[i] = w.Name
	}
	return Workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// paperQuickExperiments are the registered experiments paper-quick
// mirrors, in the order their registries merge.
var paperQuickExperiments = []string{"fig7", "fig13", "fig17"}

// paperQuickPlan mirrors the job sets of the registered fig7, fig13 and
// fig17 experiments at -quick, job for job and seed for seed: fig7 runs
// two sweeps (wired, cellular) of 14 CCAs x 4 traces, fig13 nine
// CCA-vs-CUBIC pairs, fig17 C/B-Libra x step/cellular/wired x 3
// repetitions. Each experiment seeds job i of a sweep with
// SubSeed(seed, i), and so does the plan. TestPaperQuickMatchesFigures
// keeps the two in step.
func paperQuickPlan(seed int64, size Size) Plan {
	d7, d13, d17 := 12*time.Second, 20*time.Second, 15*time.Second
	if size == Small {
		d7, d13, d17 = time.Second, time.Second, time.Second
	}
	var p Plan
	// add appends job i of one of the figures' sweeps.
	add := func(i int, s exp.Scenario, ccas ...string) {
		p.Jobs = append(p.Jobs, Job{Seed: sweep.SubSeed(seed, i), Scenario: s, CCAs: ccas})
	}

	fig7CCAs := []string{"cubic", "bbr", "copa", "sprout", "vivace", "proteus", "remy",
		"indigo", "aurora", "orca", "mod-rl", "cl-libra", "c-libra", "b-libra"}
	for _, scens := range [][]exp.Scenario{exp.WiredScenarios(d7), exp.LTEScenarios(d7, seed)} {
		for i := 0; i < len(fig7CCAs)*len(scens); i++ {
			add(i, scens[i%len(scens)], fig7CCAs[i/len(scens)])
		}
	}

	fair := exp.Scenario{
		Capacity: trace.Constant(trace.Mbps(48)),
		MinRTT:   100 * time.Millisecond,
		Buffer:   int(trace.Mbps(48) * 0.1),
		Duration: d13,
	}
	for i, c := range []string{"cubic", "bbr", "copa", "aurora", "proteus", "orca", "mod-rl", "c-libra", "b-libra"} {
		add(i, fair, c, "cubic")
	}

	// fig17's cellular trace is generated from each job's own seed.
	const reps = 3
	i := 0
	for _, c := range []string{"c-libra", "b-libra"} {
		for _, sn := range []string{"step", "cellular", "wired"} {
			for r := 0; r < reps; r++ {
				js := sweep.SubSeed(seed, i)
				s := exp.Scenario{Capacity: trace.Constant(trace.Mbps(48)),
					MinRTT: 30 * time.Millisecond, Buffer: 150_000, Duration: d17}
				switch sn {
				case "step":
					s = exp.Scenario{
						Name: "step",
						Capacity: &trace.Step{Period: 10 * time.Second, Levels: []float64{
							trace.Mbps(20), trace.Mbps(5), trace.Mbps(15), trace.Mbps(10), trace.Mbps(25)}},
						MinRTT:   80 * time.Millisecond,
						Buffer:   int(trace.Mbps(15) * 0.08),
						Duration: d17,
					}
				case "cellular":
					s.Capacity = trace.NewLTE(trace.LTEWalking, d17, js)
				}
				add(i, s, c)
				i++
			}
		}
	}
	return p
}

// dc-fabric sizing. A job is dcFlows co-started main flows for dcDur
// of simulated time. Aurora's uncapped rate floods the fabric: it has
// lost 83% of its bytes by 4 s and 99% by 8 s, and a job's cost grows
// from about 130 ms at 4 s to 1.5 s at 8 s on one worker as the drop
// path and the event heap fill. 4 s is the shortest length at which the
// flood dominates a job while a pass still fits many equal jobs.
const (
	dcJobs  = 16
	dcFlows = 64
	dcDur   = 4 * time.Second
)

// dcFabricPlan places equal numbers of aurora, mod-rl, c-libra and
// dctcp flows, interleaved, on the datacenter-ecn preset's main route
// (the preset adds its two DCTCP cross flows). Job j runs at
// SubSeed(seed, j).
func dcFabricPlan(seed int64, size Size) Plan {
	jobs, flows, d := dcJobs, dcFlows, dcDur
	if size == Small {
		jobs, flows, d = 4, 16, time.Second
	}
	mix := []string{"aurora", "mod-rl", "c-libra", "dctcp"}
	ccas := make([]string, flows)
	for i := range ccas {
		ccas[i] = mix[i%len(mix)]
	}
	var p Plan
	for j := 0; j < jobs; j++ {
		topo, ok := exp.TopoPreset("datacenter-ecn")
		if !ok {
			panic("benchmark: the program no longer has the datacenter-ecn topology preset")
		}
		p.Jobs = append(p.Jobs, Job{
			Seed:     sweep.SubSeed(seed, j),
			Scenario: exp.Scenario{Name: fmt.Sprintf("fabric-%d", j), Topo: topo, Duration: d},
			CCAs:     ccas,
		})
	}
	return p
}

// lab-traced sizing: per-CCA adversarial search budget and evaluation
// length. 4 s is libra-lab's default evaluation; shorter evaluations
// would hide the memory the retained sweep buffers hold.
const (
	labBudget = 16
	labDurS   = 4
)

// labTracedPlan is a robustness tournament over a classic loss-based, a
// model-based, a Libra and a pure-RL controller.
func labTracedPlan(seed int64, size Size) Plan {
	cfg := &lab.TournamentConfig{
		CCAs:   []string{"cubic", "bbr", "c-libra", "aurora"},
		Seed:   seed,
		Budget: labBudget,
		DurS:   labDurS,
	}
	if size == Small {
		cfg.Budget, cfg.DurS = 0, 1
	}
	return Plan{Tournament: cfg}
}
