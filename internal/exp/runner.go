package exp

import (
	"fmt"
	"time"

	"libra/internal/cc"
	"libra/internal/netem"
	"libra/internal/netem/faults"
	"libra/internal/sweep"
	"libra/internal/telemetry"
	"libra/internal/trace"
)

// Scenario is one emulated-network workload.
type Scenario struct {
	Name     string
	Capacity trace.Trace
	MinRTT   time.Duration
	Buffer   int
	Loss     float64
	Duration time.Duration
	// Faults composes adversarial link dynamics onto the bottleneck.
	// Nil falls back to the RunContext's plan (itself nil by default:
	// no faults).
	Faults *faults.Plan
	// Topo, when set, runs the scenario over a multi-hop topology
	// instead of the single bottleneck: the flows under test ride the
	// spec's main route, cross traffic is placed per the spec, and
	// Capacity/MinRTT/Buffer/Loss are ignored in favour of the per-link
	// parameters. Nil falls back to the RunContext's spec (itself nil
	// by default: single bottleneck).
	Topo *TopoSpec
	// Profiles labels flows with utility-profile names, index-aligned
	// with the makers passed to RunFlows ("" = unlabelled). Labelled
	// flows are stamped with a TypeProfile event at start, keying
	// per-profile time series and SLO attainment.
	Profiles []string
}

// WiredScenarios returns the paper's wired trace set (Fig. 1 uses
// 24/48/96 Mbps; Fig. 7 adds 12 Mbps), with 30 ms RTT and 150 KB buffer.
func WiredScenarios(d time.Duration, mbps ...float64) []Scenario {
	if len(mbps) == 0 {
		mbps = []float64{12, 24, 48, 96}
	}
	out := make([]Scenario, 0, len(mbps))
	for _, m := range mbps {
		out = append(out, Scenario{
			Name:     fmt.Sprintf("Wired-%gMbps", m),
			Capacity: trace.Constant(trace.Mbps(m)),
			MinRTT:   30 * time.Millisecond,
			Buffer:   150_000,
			Duration: d,
		})
	}
	return out
}

// LTEScenarios returns the synthetic cellular trace set (LTE#1..#3 plus
// the driving tour), 30 ms RTT, 150 KB buffer.
func LTEScenarios(d time.Duration, seed int64) []Scenario {
	mk := func(name string, tr trace.Trace) Scenario {
		return Scenario{Name: name, Capacity: tr, MinRTT: 30 * time.Millisecond,
			Buffer: 150_000, Duration: d}
	}
	return []Scenario{
		mk("LTE-stationary", trace.NewLTE(trace.LTEStationary, d, seed+1)),
		mk("LTE-walking", trace.NewLTE(trace.LTEWalking, d, seed+2)),
		mk("LTE-driving", trace.NewLTE(trace.LTEDriving, d, seed+3)),
		mk("LTE-tour", trace.NewDrivingTour(d, seed+4)),
	}
}

// Metrics summarises one flow's run.
type Metrics struct {
	Util     float64
	ThrMbps  float64
	DelayMs  float64
	LossRate float64
	// CPUFrac is controller compute-time divided by simulated time —
	// the overhead metric (Fig. 2c / Fig. 12).
	CPUFrac float64
	Flow    *netem.Flow
	// Topo is the network the run drove: the scenario's multi-hop
	// topology, or the single bottleneck's two-node, one-link one.
	Topo *netem.Topology
	Ctrl cc.Controller
	// Failed marks a run aborted by a controller panic or an invalid
	// configuration; Err carries the cause and every other field is
	// zero. The harness records the failure and keeps going instead of
	// taking the whole experiment down.
	Failed bool
	Err    error
}

// failedRun records one aborted run and returns a marker Metrics for
// each of its n main flows.
func (rc *RunContext) failedRun(s Scenario, n int, err error) []Metrics {
	rc.Metrics.Counter("libra_flow_failures_total",
		"flow runs aborted by a controller panic or invalid configuration").Inc()
	m := Metrics{Failed: true, Err: fmt.Errorf("scenario %s: %w", s.Name, err)}
	out := make([]Metrics, n)
	for i := range out {
		out[i] = m
	}
	return out
}

// RunFlow drives one controller over a scenario, seeded by the
// context, and returns its metrics. When bucket > 0 the flow records
// time series at that width. Results are also summarised into
// rc.Metrics, and rc.Tracer is wired through the network and
// controller. A panic out of the controller (or an invalid fault
// plan or topology) is contained: the run is recorded as failed
// (Metrics.Failed/Err) instead of unwinding the whole experiment.
func (rc *RunContext) RunFlow(s Scenario, mk Maker, bucket time.Duration) Metrics {
	return rc.run(s, []Maker{mk}, nil, bucket, func(int) int64 { return rc.Seed })[0]
}

// RunFlows drives several controllers sharing the scenario's main
// path; starts[i] delays flow i. Per-flow seeds are sub-derived from
// the context seed. Returns per-flow metrics. Like RunFlow, a panic
// marks every flow of the run failed rather than escaping.
func (rc *RunContext) RunFlows(s Scenario, mks []Maker, starts []time.Duration, bucket time.Duration) []Metrics {
	return rc.run(s, mks, starts, bucket, func(i int) int64 { return sweep.SubSeed(rc.Seed, i) })
}

// topoFor resolves the scenario's topology spec, falling back to the
// context's (libra-bench -topo); nil means the single bottleneck.
func (rc *RunContext) topoFor(s Scenario) *TopoSpec {
	if s.Topo != nil {
		return s.Topo
	}
	return rc.Topo
}

// run is the harness's one run path. It builds the scenario's network:
// the topology spec when one applies (see topoFor), else the single
// bottleneck, whose one link stays unlabelled so its events and metric
// names keep the pre-topology encoding. It drives mks[i], seeded
// seedOf(i) and started at starts[i], down the main route, places the
// spec's cross traffic after them (so main flow IDs are 0..len(mks)-1),
// runs for the scenario's duration, records the links and main flows
// into rc.Metrics, and returns the main flows' metrics in maker order.
// A panic, or a scenario the builder rejects, marks every main flow
// failed instead of unwinding the experiment.
func (rc *RunContext) run(s Scenario, mks []Maker, starts []time.Duration, bucket time.Duration, seedOf func(int) int64) (out []Metrics) {
	rc.WithDefaults()
	var tp *netem.Topology
	flows := make([]*netem.Flow, 0, len(mks))
	defer func() {
		if r := recover(); r != nil {
			// The anomaly markers reach the flight recorder through the
			// ordinary (ordered) event stream, so every ring that was
			// being fed dumps its contents at the crash deterministically.
			var t int64
			if tp != nil {
				t = int64(tp.Eng.Now())
			}
			for i := range flows {
				rc.EmitAnomaly(t, i, telemetry.AnomalyPanic)
			}
			if len(flows) == 0 {
				rc.EmitAnomaly(t, -1, telemetry.AnomalyPanic)
			}
			out = rc.failedRun(s, len(mks), fmt.Errorf("panic: %v", r))
		}
	}()

	plan := s.Faults
	if plan == nil {
		plan = rc.FaultPlan
	}
	var (
		main   *netem.Route
		routes map[string]*netem.Route
		cross  []CrossFlow
	)
	if ts := rc.topoFor(s); ts != nil {
		var err error
		tp, routes, err = ts.Build(TopoBuild{
			Seed:         rc.Seed,
			Tracer:       rc.Tracer,
			Health:       rc.Health,
			SeriesBucket: bucket,
			ExtraFaults:  plan,
		})
		if err != nil {
			return rc.failedRun(s, len(mks), err)
		}
		main, cross = routes[ts.Main], ts.Cross
	} else {
		var inj netem.FaultInjector
		if !plan.Empty() {
			fi, err := faults.New(plan, rc.Seed)
			if err != nil {
				return rc.failedRun(s, len(mks), err)
			}
			inj = fi
		}
		n := netem.New(netem.Config{
			Capacity:     s.Capacity,
			MinRTT:       s.MinRTT,
			BufferBytes:  s.Buffer,
			LossRate:     s.Loss,
			Faults:       inj,
			Seed:         rc.Seed,
			SeriesBucket: bucket,
			Tracer:       rc.Tracer,
			Health:       rc.Health,
		})
		tp, main = n.Topology, n.Routes()[0]
	}

	rc.EmitSpan(0, -1, "scenario:"+s.Name, true)
	batcher := rc.newBatcher()
	names := make([]string, len(mks))
	for i, mk := range mks {
		var start time.Duration
		if i < len(starts) {
			start = starts[i]
		}
		ctrl := mk(seedOf(i))
		names[i] = ctrl.Name()
		rc.EmitSpan(0, i, "flow:"+names[i], true)
		rc.AttachTracer(ctrl, i)
		rc.attachBatcher(batcher, ctrl, i)
		if i < len(s.Profiles) {
			rc.EmitProfile(0, i, s.Profiles[i])
		}
		flows = append(flows, tp.AddFlowOn(main, ctrl, start, 0))
	}
	idx := len(mks)
	for _, cf := range cross {
		cca := cf.CCA
		if cca == "" {
			cca = "cubic"
		}
		mk, err := MakerFor(cca, nil, nil)
		if err != nil {
			return rc.failedRun(s, len(mks), err) // unreachable: Build checked the name
		}
		count := cf.Count
		if count == 0 {
			count = 1
		}
		start := time.Duration(cf.StartS * float64(time.Second))
		for k := 0; k < count; k++ {
			ctrl := mk(sweep.SubSeed(rc.Seed, idx))
			rc.AttachTracer(ctrl, idx)
			rc.attachBatcher(batcher, ctrl, idx)
			f := tp.AddFlowOn(routes[cf.Route], ctrl, start, 0)
			if cf.RateMbps > 0 {
				f.SetAppRate(trace.Mbps(cf.RateMbps))
			}
			idx++
		}
	}

	tp.Run(s.Duration)
	rc.recordBatch(batcher)
	for i := range flows {
		rc.EmitSpan(s.Duration.Nanoseconds(), i, "flow:"+names[i], false)
	}
	rc.EmitSpan(s.Duration.Nanoseconds(), -1, "scenario:"+s.Name, false)
	bott := tp.RouteBottleneck(main, s.Duration)
	util := tp.LinkUtilization(bott, s.Duration)
	rc.recordLinks(tp, bott, util, s.Duration)
	out = make([]Metrics, len(flows))
	for i, f := range flows {
		out[i] = rc.observe(tp, f, util, s.Duration)
	}
	return out
}

// Repeat runs the scenario reps times with sub-derived seeds — one
// Sweep job per repetition, so repetitions parallelise across
// rc.Workers — and returns the per-run metrics in repetition order. mk
// is invoked once per job with the job's context so agent-backed
// makers bind the job's private clone (see CCAMaker).
func (rc *RunContext) Repeat(s Scenario, mk func(*RunContext) Maker, reps int) []Metrics {
	return Sweep(rc, reps, func(jc *RunContext, _ int) Metrics {
		return jc.RunFlow(s, mk(jc), 0)
	})
}

// fmtF formats a float with the given precision.
func fmtF(v float64, prec int) string { return fmt.Sprintf("%.*f", prec, v) }

// delayMean averages DelayMs over the flows that have a delay. A failed
// run or a flow that got no RTT sample is left out and counted as
// starved: its zero mean RTT would read as low delay, when it has no
// delay to average at all.
type delayMean struct {
	sum              float64
	sampled, starved int
}

// hasDelay reports whether m has a delay to report: a failed run or a
// flow that got no RTT sample has none (it is starved), and its zero
// mean RTT would read as low delay.
func hasDelay(m Metrics) bool { return !m.Failed && m.Flow.Stats.RTTCount > 0 }

// add folds one flow in.
func (d *delayMean) add(m Metrics) {
	if !hasDelay(m) {
		d.starved++
		return
	}
	d.sum += m.DelayMs
	d.sampled++
}

// format renders the mean with the given precision, or "-" when no
// flow had a delay.
func (d *delayMean) format(prec int) string {
	if d.sampled == 0 {
		return "-"
	}
	return fmtF(d.sum/float64(d.sampled), prec)
}

// starvedNotes returns the report note for n flows left out of a
// report's delay averages; none when n is 0.
func starvedNotes(n int) []string {
	if n == 0 {
		return nil
	}
	return []string{fmt.Sprintf("%d flow(s) failed or got no RTT sample and are left out of avg delay ('-' when none is left): a starved flow has no delay to average, not a low one", n)}
}
