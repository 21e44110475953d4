package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"strings"
	"time"

	"libra/internal/cc"
	"libra/internal/cliutil"
	"libra/internal/exp"
	"libra/internal/lab"
	"libra/internal/rlcc"
	"libra/internal/telemetry"
)

// modelsDir is the shipped model directory, relative to the checkout
// root the benchmark runs from.
const modelsDir = "models"

// benchWorkers is the sweep worker count of every timed pass.
const benchWorkers = 2

// setup returns the agent set every pass runs with: the shipped
// models, loaded as libra-bench -models loads them.
func setup(seed int64) (*exp.AgentSet, error) {
	set, err := exp.LoadAgentSet(modelsDir, seed)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", modelsDir, err)
	}
	return set, nil
}

// train quick-trains an agent set as libra-lab does lazily at its seed;
// the small size trains a token set for the self-tests.
func train(seed int64, size Size) *exp.AgentSet {
	spec := exp.QuickTrainSpec(seed)
	if size == Small {
		spec.Episodes, spec.EpisodeLen = 2, time.Second
	}
	spec.Workers = benchWorkers
	return exp.TrainAgentSet(spec)
}

// FlowResult holds the scalars of one main flow. Jobs keep scalars
// only: holding exp.Metrics would keep the whole network alive.
type FlowResult struct {
	CCA        string
	Failed     bool
	ThrMbps    float64
	RTTMs      float64
	Loss       float64
	Util       float64
	RTTSamples int64
	Sent       int64 // bytes
	Acked      int64 // bytes
	Lost       int64 // bytes
	ComputeNs  int64
	Decisions  int64 // MI decisions of batcher-eligible rlcc controllers
}

// JobResult holds one job's flows, checks and span.
type JobResult struct {
	Flows    []FlowResult
	Failures int64   // libra_flow_failures_total
	MaxUtil  float64 // largest libra_link_utilization gauge
	StartNs  int64   // wall clock, relative to the pass start
	EndNs    int64
}

// SinkStat aggregates one telemetry sink's Emit calls in a pass: the
// rig's per-sink span, kept as a count and a total rather than one
// span per event.
type SinkStat struct {
	Name   string
	Events int64
	Ns     int64
}

// PassResult is everything one pass over a plan produced.
type PassResult struct {
	WallNs int64
	SimNs  int64
	Events int64
	// Jobs are in plan order; nil for a tournament.
	Jobs         []JobResult
	TournamentNs int64
	// Snap is the pass's metrics registry, into which exp.Sweep merges
	// the job registries in plan order.
	Snap telemetry.Snapshot
	// Modelled outputs.
	ThrMbps, RTTMs, Utility float64
	Starved                 int64
	// Output checks: jobs (or lab evaluations) attempted and failed.
	Attempted, Failed int64
	Why               []string
	Digest            string
	// Inference-batcher counters (RunContext.Batch).
	Batch rlcc.BatchStats
	// Telemetry rig (lab-traced only).
	Sinks       []SinkStat
	TelEvents   int64
	BytesOut    int64
	FlightDumps int64
	// LinkBytes sums the bytes of every enqueue and drop event the rig
	// saw: each packet a flow sends is enqueued or dropped at its first
	// link, so no pass can ack and lose more bytes than this.
	LinkBytes int64
	// Board is the tournament's leaderboard.
	Board *lab.Leaderboard
	// Go runtime deltas over the pass.
	Runtime runtimeStats
}

// runPass runs one pass of the plan on a fresh RunContext. A
// tournament runs with the operator's telemetry rig attached; traced
// wraps each rig sink in a timing tracer, and nothing else differs
// between traced and untraced passes.
func runPass(plan Plan, agents *exp.AgentSet, seed int64, workers int, traced bool, scratch string) (*PassResult, error) {
	rc := exp.NewRunContext(seed)
	rc.Quick = true
	rc.Workers = workers
	rc.Agents = agents
	hreg := telemetry.NewRegistry()
	h := telemetry.NewHealth(hreg)
	rc.Health = h
	res := &PassResult{}

	var rig *telemetryRig
	if plan.Tournament != nil {
		var err error
		if rig, err = newTelemetryRig(rc, traced, scratch); err != nil {
			return nil, err
		}
		defer rig.remove()
	}

	r0 := readRuntime()
	h.Sample()
	start := time.Now()
	var board bytes.Buffer
	if plan.Tournament != nil {
		lb, err := lab.Tournament(rc, *plan.Tournament)
		if err != nil {
			return nil, err
		}
		res.TournamentNs = time.Since(start).Nanoseconds()
		if err := rig.finish(); err != nil {
			return nil, err
		}
		res.Board = lb
		if err := lb.WriteJSON(&board); err != nil {
			return nil, err
		}
	} else {
		res.Jobs = runJobs(rc, plan.Jobs, start)
	}
	res.WallNs = time.Since(start).Nanoseconds()
	res.Snap = rc.Metrics.Snapshot()
	h.Sample()
	res.Runtime = readRuntime().sub(r0)
	res.SimNs, res.Events = healthTotals(hreg)

	res.Batch = rc.Batch.Snapshot()
	res.ThrMbps = histMean(res.Snap, "libra_flow_throughput_mbps")
	res.Utility = histMean(res.Snap, "libra_cycle_utility")
	res.RTTMs, res.Starved = flowRTT(res)
	if rig != nil {
		res.Sinks = rig.sinkStats()
		res.TelEvents = rig.rec.Events()
		res.BytesOut = rig.out.n
		res.FlightDumps = rig.flight.Dumps()
		res.LinkBytes = rig.tally.bytes
	}
	checkPass(res)
	res.Digest = digestPass(res, board.Bytes())
	return res, nil
}

// runJobs runs the jobs through one exp.Sweep, in plan order, each
// worker taking the next job when it finishes. Each job context is
// reseeded to the job's own seed, as the figures' sweeps seed theirs.
func runJobs(rc *exp.RunContext, jobs []Job, passStart time.Time) []JobResult {
	return exp.Sweep(rc, len(jobs), func(jc *exp.RunContext, i int) JobResult {
		jc.Reseed(jobs[i].Seed)
		return runJob(jc, jobs[i], passStart)
	})
}

// runJob runs one job on its sweep-child context and reduces it to
// scalars, the way the figures call the runner: RunFlow for a single
// flow, RunFlows for co-started flows.
func runJob(jc *exp.RunContext, job Job, passStart time.Time) JobResult {
	jr := JobResult{StartNs: time.Since(passStart).Nanoseconds()}
	mks := make([]exp.Maker, len(job.CCAs))
	for i, c := range job.CCAs {
		mks[i] = exp.CCAMaker(c, nil)(jc)
	}
	var ms []exp.Metrics
	if len(mks) == 1 {
		ms = []exp.Metrics{jc.RunFlow(job.Scenario, mks[0], 0)}
	} else {
		ms = jc.RunFlows(job.Scenario, mks, nil, 0)
	}
	jr.EndNs = time.Since(passStart).Nanoseconds()

	jr.Flows = make([]FlowResult, len(ms))
	for i, m := range ms {
		fr := FlowResult{CCA: job.CCAs[i], Failed: m.Failed}
		if !m.Failed {
			st := m.Flow.Stats
			fr.ThrMbps, fr.RTTMs, fr.Loss, fr.Util = m.ThrMbps, m.DelayMs, m.LossRate, m.Util
			fr.RTTSamples = st.RTTCount
			fr.Sent, fr.Acked, fr.Lost, fr.ComputeNs = st.SentBytes, st.AckedBytes, st.LostBytes, st.ComputeNs
			if c, ok := m.Ctrl.(*rlcc.Controller); ok {
				fr.Decisions = int64(c.Decisions())
			}
		}
		jr.Flows[i] = fr
	}
	snap := jc.Metrics.Snapshot()
	jr.Failures = snap.Counters["libra_flow_failures_total"]
	for name, v := range snap.Gauges {
		if strings.HasPrefix(name, "libra_link_utilization") && (v > jr.MaxUtil || math.IsNaN(v)) {
			jr.MaxUtil = v
		}
	}
	return jr
}

// histMean returns a registry histogram's mean (0 when absent).
func histMean(s telemetry.Snapshot, name string) float64 {
	h, ok := s.Histograms[name]
	if !ok || h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// flowRTT returns the mean per-flow RTT over flows with at least one
// RTT sample, and the number of flows without one. FlowStats.AvgRTT
// reads 0 for a flow that got no ACK, and libra_flow_rtt_ms records
// that 0, so a change that starves flows would otherwise read as lower
// RTT. For the benchmark's own jobs the flows' sample counts decide;
// inside a tournament only the registry is visible, and there every
// path has at least 10 ms of propagation delay, so the histogram's
// lowest bucket (<= 1 ms) holds exactly the starved flows.
func flowRTT(p *PassResult) (rttMs float64, starved int64) {
	if p.Jobs == nil {
		h := p.Snap.Histograms["libra_flow_rtt_ms"]
		if len(h.Bounds) == 0 || h.Bounds[0] > 1 {
			return 0, 0
		}
		starved = int64(h.Counts[0])
		if n := int64(h.Count) - starved; n > 0 {
			rttMs = h.Sum / float64(n)
		}
		return rttMs, starved
	}
	var sum float64
	var n int64
	for _, j := range p.Jobs {
		for _, f := range j.Flows {
			if f.Failed {
				continue
			}
			if f.RTTSamples == 0 {
				starved++
				continue
			}
			sum += f.RTTMs
			n++
		}
	}
	if n > 0 {
		rttMs = sum / float64(n)
	}
	return rttMs, starved
}

// healthTotals reads exact simulated-time and engine-event totals from
// the registry of a Health sampled once before and once after the runs
// it covered: the two rate gauges share one wall-clock denominator, so
// their quotient times the simulated seconds recovers the event count.
func healthTotals(reg *telemetry.Registry) (simNs, events int64) {
	s := reg.Snapshot()
	simS := s.Gauges["libra_health_sim_time_seconds"]
	ratio := s.Gauges["libra_health_sim_wall_ratio"]
	evSec := s.Gauges["libra_health_events_per_second"]
	simNs = int64(math.Round(simS * 1e9))
	if ratio > 0 {
		events = int64(math.Round(evSec / ratio * simS))
	}
	return simNs, events
}

// runtimeStats are Go runtime counters: cumulative, or their change
// over a pass.
type runtimeStats struct {
	AllocBytes uint64
	GCCycles   uint64
	GCCPUs     float64
	CPUs       float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeStats {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() != metrics.KindUint64 {
			return 0
		}
		return s[i].Value.Uint64()
	}
	f := func(i int) float64 {
		if s[i].Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		return s[i].Value.Float64()
	}
	return runtimeStats{AllocBytes: u(0), GCCycles: u(1), GCCPUs: f(2), CPUs: f(3)}
}

func (a runtimeStats) sub(b runtimeStats) runtimeStats {
	return runtimeStats{
		AllocBytes: a.AllocBytes - b.AllocBytes,
		GCCycles:   a.GCCycles - b.GCCycles,
		GCCPUs:     a.GCCPUs - b.GCCPUs,
		CPUs:       a.CPUs - b.CPUs,
	}
}

// mss converts byte counters to packets.
var mss = cc.Config{}.WithDefaults().MSS

// telemetryRig is the operator's rig as libra-lab -trace-out -flight-out
// -timeseries-out attaches it: JSONL recorder, flight recorder followed
// by the anomaly tap, then the time-series collector. The recorder
// writes to a byte-counting discard writer so disk speed stays out of
// the figures; flight dumps land in a scratch directory removed after
// the pass. A byte tally for the output checks follows the rig's
// sinks.
type telemetryRig struct {
	out    *countingWriter
	rec    *telemetry.Recorder
	flight *telemetry.FlightRecorder
	ts     *telemetry.TSCollector
	tally  *linkTally
	timed  []*timedSink
	dir    string
}

func newTelemetryRig(rc *exp.RunContext, traced bool, scratch string) (*telemetryRig, error) {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratch, "flight-")
	if err != nil {
		return nil, fmt.Errorf("flight dir: %w", err)
	}
	r := &telemetryRig{out: &countingWriter{}, tally: &linkTally{}, dir: dir}
	r.rec = telemetry.NewRecorder(r.out)
	r.flight = telemetry.NewFlightRecorder(telemetry.FlightConfig{Dir: dir, Metrics: rc.Metrics})
	r.ts = telemetry.NewTSCollector(0, 0)
	sinks := []struct {
		name string
		t    telemetry.Tracer
	}{
		{"recorder", r.rec},
		{"flight", cliutil.FlightTap(r.flight)},
		{"analyze", cliutil.AnomalyTap(r.flight)},
		{"ts", r.ts},
	}
	ts := make([]telemetry.Tracer, len(sinks))
	for i, s := range sinks {
		ts[i] = s.t
		if traced {
			t := &timedSink{name: s.name, t: s.t}
			r.timed = append(r.timed, t)
			ts[i] = t
		}
	}
	rc.Tracer = telemetry.Multi(append(ts, r.tally)...)
	return r, nil
}

// finish flushes the rig the way the CLI teardown does: recorder tail,
// time-series snapshot, flight-recorder error.
func (r *telemetryRig) finish() error {
	if r == nil {
		return nil
	}
	if err := r.rec.Flush(); err != nil {
		return err
	}
	if err := r.ts.WriteJSON(r.out); err != nil {
		return err
	}
	return r.flight.Err()
}

func (r *telemetryRig) sinkStats() []SinkStat {
	out := make([]SinkStat, len(r.timed))
	for i, t := range r.timed {
		out[i] = SinkStat{Name: t.name, Events: t.n, Ns: t.ns}
	}
	return out
}

func (r *telemetryRig) remove() { os.RemoveAll(r.dir) }

// countingWriter discards its input and counts the bytes.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// linkTally sums the bytes of enqueue and drop events. Sweep replays
// job buffers into the rig one job at a time, so Emit is never
// concurrent.
type linkTally struct{ bytes int64 }

func (t *linkTally) Enabled() bool { return true }

func (t *linkTally) Emit(e *telemetry.Event) {
	if e.Type == telemetry.TypeEnqueue || e.Type == telemetry.TypeDrop {
		t.bytes += e.Bytes
	}
}

// timedSink wraps one sink and accumulates the wall time of its Emit
// calls. Sweep replays job buffers into the rig one job at a time under
// its own lock, so a sink never sees concurrent Emits.
type timedSink struct {
	name string
	t    telemetry.Tracer
	n    int64
	ns   int64
}

func (s *timedSink) Enabled() bool { return true }

func (s *timedSink) Emit(e *telemetry.Event) {
	t0 := time.Now()
	s.t.Emit(e)
	s.ns += time.Since(t0).Nanoseconds()
	s.n++
}
