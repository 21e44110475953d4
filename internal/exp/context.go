package exp

import (
	"sync"

	"libra/internal/netem/faults"
	"libra/internal/sweep"
	"libra/internal/telemetry"
	"libra/internal/utility"
)

// RunContext carries everything one experiment run owns: the seed, the
// quick/full switch, the worker budget, the metrics registry, the
// tracer, the fault plan, and the trained agent set. It replaces the
// package-level harness globals (metrics registry, tracer, fault plan,
// lazily-trained agents) so concurrent runs cannot observe each other
// and a sweep can give every job a private context.
//
// Contexts form a two-level tree: experiments receive a top-level
// context and fan independent jobs out via Sweep, which hands each job
// a derived child context (sub-derived seed, fresh registry, buffered
// tracer, cloned agents). All fields are set before the run starts and
// never mutated during one, so concurrent jobs may read their parent
// freely.
type RunContext struct {
	// Quick reduces durations and repeat counts so the whole suite runs
	// in benchmark/CI budgets; the full version matches the paper's
	// setup more closely.
	Quick bool
	// Seed drives all stochastic choices. Jobs spawned via Sweep get
	// sweep.SubSeed-derived seeds, so results are independent of worker
	// count and of how many jobs ran before.
	Seed int64
	// Workers bounds Sweep's concurrency; 0 means GOMAXPROCS.
	Workers int
	// Tracer receives telemetry events from every network and traceable
	// controller the runner builds. Sweep jobs record into private
	// buffers that replay into this sink in job order, so the event
	// stream is byte-identical at any worker count. Nil disables.
	Tracer telemetry.Tracer
	// Metrics is the run's registry. Sweep jobs record into private
	// registries merged here in job order.
	Metrics *telemetry.Registry
	// FaultPlan applies to scenarios that don't carry their own
	// (libra-bench -fault). Nil means no faults.
	FaultPlan *faults.Plan
	// Topo applies to scenarios that don't carry their own topology
	// (libra-bench -topo). Nil means the single-bottleneck path.
	Topo *TopoSpec
	// Agents supplies pre-trained policies; a small quick-trained set is
	// built lazily (cached per seed) when nil and an experiment needs
	// one. Sweep jobs always work on a private clone, because the
	// learning CCAs mutate their normaliser and sample from the policy
	// RNG at inference time.
	Agents *AgentSet
	// Health, when set, has every network engine the runner builds
	// registered for the duration of its run, feeding the runtime
	// health gauges. Health is goroutine-safe and shared by Sweep jobs;
	// its wall-clock-derived gauges are deliberately outside the
	// determinism guarantees that cover Metrics and Tracer.
	Health *telemetry.Health
	// NoBatch disables the shared-agent inference batcher, forcing
	// every learning flow onto the sequential per-flow forward-pass
	// path. The batched and unbatched paths are bit-identical by
	// construction; the knob exists for A/B benchmarking and for the
	// equivalence tests that prove it.
	NoBatch bool
	// Batch accumulates inference-batcher work counters across every
	// engine run the context records; Sweep jobs fold into their
	// parent's accumulator. Deliberately kept outside Metrics so
	// batched and unbatched runs snapshot identical registries.
	Batch *BatchCounters

	// parent links a Sweep job back to the context that spawned it.
	parent *RunContext
	// jobAgents caches this job's private agent clone.
	jobAgents *AgentSet
	// cache shares lazily-trained agent sets (per seed) across the
	// whole context tree.
	cache *agentCache
	// train builds the lazy agent set for a seed; a seam for tests that
	// must observe training calls without paying for real training.
	train func(seed int64) *AgentSet
}

// NewRunContext returns a ready-to-use context for the given seed with
// every other knob at its default.
func NewRunContext(seed int64) *RunContext {
	rc := &RunContext{Seed: seed}
	return rc.WithDefaults()
}

// WithDefaults fills zero fields in place (idempotent) and returns rc
// for chaining. Every harness entry point calls it, so a literal
// &RunContext{Quick: true} is a valid argument anywhere.
func (rc *RunContext) WithDefaults() *RunContext {
	if rc.Seed == 0 {
		rc.Seed = 1
	}
	if rc.Metrics == nil {
		rc.Metrics = telemetry.NewRegistry()
	}
	if rc.Batch == nil {
		rc.Batch = &BatchCounters{}
	}
	if rc.cache == nil {
		rc.cache = &agentCache{bySeed: map[int64]*AgentSet{}}
	}
	if rc.train == nil {
		rc.train = func(seed int64) *AgentSet {
			spec := QuickTrainSpec(seed)
			spec.Workers = rc.Workers
			return TrainAgentSet(spec)
		}
	}
	return rc
}

// agentCache shares lazily-trained agent sets keyed by seed, fixing
// the old sync.Once bug where the first caller's seed trained the set
// every later run silently reused.
type agentCache struct {
	mu     sync.Mutex
	bySeed map[int64]*AgentSet
}

func (c *agentCache) get(seed int64, train func(int64) *AgentSet) *AgentSet {
	c.mu.Lock()
	defer c.mu.Unlock()
	if a, ok := c.bySeed[seed]; ok {
		return a
	}
	a := train(seed)
	c.bySeed[seed] = a
	return a
}

// agents returns the agent set this context should run with. A
// top-level context uses its explicit set or trains one lazily per
// seed; a Sweep job clones its parent's set, because inference mutates
// normaliser statistics and policy RNG state and a shared set across
// concurrent jobs would race (and order results by scheduling).
func (rc *RunContext) agents() *AgentSet {
	rc.WithDefaults()
	if rc.parent != nil {
		if rc.jobAgents == nil {
			rc.jobAgents = rc.parent.agents().Clone(rc.Seed)
		}
		return rc.jobAgents
	}
	if rc.Agents != nil {
		return rc.Agents
	}
	return rc.cache.get(rc.Seed, rc.train)
}

// Reseed points the context at a different seed and drops the cached
// per-job agent clone, which was trained/cloned for the old seed. Lab
// evaluations use this so every candidate scenario in a sweep batch
// runs at its own recorded seed instead of the job-index seed the
// sweep assigned — the objective must depend on the scenario, not on
// where it landed in the batch.
func (rc *RunContext) Reseed(seed int64) *RunContext {
	rc.Seed = seed
	rc.jobAgents = nil
	return rc
}

// quiet returns a copy of the context that records nothing: no events
// and a private registry nobody reads. A timing repeat of a run that is
// already recorded uses it, so the repeat's flows are not counted
// twice.
func (rc *RunContext) quiet() *RunContext {
	q := *rc
	q.Tracer, q.Metrics = nil, telemetry.NewRegistry()
	return &q
}

// child builds the context for Sweep job i: sub-derived seed, private
// registry, buffered tracer (when the parent traces; its events sit in
// pages recycled across every sweep's jobs), shared fault plan and
// agent cache, serial workers (nested Sweeps inside a job run inline
// rather than oversubscribing the pool).
func (rc *RunContext) child(i int) *RunContext {
	jc := &RunContext{
		Quick:     rc.Quick,
		Seed:      sweep.SubSeed(rc.Seed, i),
		Workers:   1,
		Metrics:   telemetry.NewRegistry(),
		FaultPlan: rc.FaultPlan,
		Topo:      rc.Topo,
		Health:    rc.Health,
		NoBatch:   rc.NoBatch,
		Batch:     rc.Batch,
		parent:    rc,
		cache:     rc.cache,
		train:     rc.train,
	}
	if telemetry.Enabled(rc.Tracer) {
		jc.Tracer = &telemetry.Buffer{}
	}
	return jc
}

// Sweep runs n independent jobs on rc.Workers workers and returns
// their results in job order. Each job gets a child context (see
// child); job registries merge into rc.Metrics and trace buffers
// replay into rc.Tracer strictly in job order — streamed as each
// ordered prefix of jobs completes, by the worker that completed it
// and under the sweep's lock, so live observers (the flow dashboard
// tapping rc.Tracer) see progress during the sweep rather than one
// burst at the end. A replayed buffer's pages go back to the pool for
// the jobs still running. The merged stream is identical at every
// worker count — including 1 — so a sweep's report, metrics snapshot,
// and event stream are byte-identical regardless of parallelism.
func Sweep[T any](rc *RunContext, n int, job func(jc *RunContext, i int) T) []T {
	rc.WithDefaults()
	var (
		mu      sync.Mutex
		kids    = make([]*RunContext, n)
		flushed int
	)
	// flush merges every completed job in the contiguous prefix beyond
	// the high-water mark. Callers hold mu, which also serialises access
	// to rc.Metrics and rc.Tracer (single-goroutine sinks).
	flush := func() {
		for flushed < n && kids[flushed] != nil {
			jc := kids[flushed]
			rc.Metrics.Merge(jc.Metrics)
			if b, ok := jc.Tracer.(*telemetry.Buffer); ok {
				b.ReplayTo(rc.Tracer)
				// Reset hands the buffer's pages back for the next job
				// to fill. The job's results can keep its network, and
				// through it this buffer, alive until the sweep returns.
				b.Reset()
			}
			kids[flushed] = nil
			flushed++
		}
	}
	out := sweep.Map(rc.Workers, n, func(i int) T {
		jc := rc.child(i)
		res := job(jc, i)
		mu.Lock()
		kids[i] = jc
		flush()
		mu.Unlock()
		return res
	})
	// The pool has drained, so every job is recorded; flush whatever
	// tail the last completion left behind.
	mu.Lock()
	flush()
	mu.Unlock()
	return out
}

// CCAMaker returns a job-scoped controller factory for the named CCA:
// called with a job context, it builds the maker there, resolving the
// job's (cloned) agent set only for a controller that runs a trained
// policy, so agent state stays private to the job and a job of classic
// controllers clones nothing. It is how every experiment builds its
// controllers, the standard argument to Repeat and the common body of
// Sweep jobs; it panics on a name the controller table lacks.
func CCAMaker(name string, util utility.Func) func(*RunContext) Maker {
	return func(jc *RunContext) Maker {
		var ag *AgentSet
		if ccaUsesAgents(name) {
			ag = jc.agents()
		}
		mk, err := MakerFor(name, ag, util)
		if err != nil {
			panic(err)
		}
		return mk
	}
}
