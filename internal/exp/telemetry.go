package exp

import (
	"fmt"
	"strings"
	"time"

	"libra/internal/core"
	"libra/internal/netem"
	"libra/internal/telemetry"
	"libra/internal/trace"
)

// Every flow the runner drives is summarised into the RunContext's
// registry (histograms for RTT/throughput/utility/cycle length,
// counters for drops and cycle outcomes); the CLIs export it as JSON
// or Prometheus text and serve it at /metrics next to pprof. There is
// no harness-wide registry or tracer any more — each run owns its own
// via RunContext, and Sweep merges per-job registries deterministically.

// cpuFracBuckets spans controller compute overhead from negligible to
// pathological (fraction of simulated time).
func cpuFracBuckets() []float64 {
	return []float64{1e-6, 1e-5, 1e-4, 1e-3, 3e-3, 0.01, 0.03, 0.1, 0.3, 1}
}

// observe computes one main flow's run metrics, given the utilisation
// of its route's bottleneck, and records them in the context's
// registry.
func (rc *RunContext) observe(tp *netem.Topology, f *netem.Flow, util float64, d time.Duration) Metrics {
	m := Metrics{
		Util:     util,
		ThrMbps:  trace.ToMbps(f.Stats.AvgThroughput()),
		DelayMs:  float64(f.Stats.AvgRTT()) / float64(time.Millisecond),
		LossRate: f.Stats.LossRate(),
		CPUFrac:  float64(f.Stats.ComputeNs) / float64(d.Nanoseconds()),
		Flow:     f,
		Topo:     tp,
		Ctrl:     f.Controller(),
	}
	rc.recordFlow(f, m)
	return m
}

// recordFlow pushes one flow's summary into the registry.
func (rc *RunContext) recordFlow(f *netem.Flow, m Metrics) {
	reg := rc.Metrics
	name := m.Ctrl.Name()
	reg.Counter("libra_flows_total", "flows driven by the experiment harness").Inc()
	reg.Histogram("libra_flow_rtt_ms", "per-flow mean RTT", telemetry.RTTBucketsMs()).
		Observe(m.DelayMs)
	reg.Histogram("libra_flow_throughput_mbps", "per-flow mean throughput", telemetry.ThroughputBucketsMbps()).
		Observe(m.ThrMbps)
	reg.Histogram("libra_flow_cpu_frac", "controller compute time / simulated time", cpuFracBuckets()).
		Observe(m.CPUFrac)
	reg.Counter(fmt.Sprintf("libra_flow_acked_bytes_total{cca=%q}", name), "acknowledged bytes by controller").
		Add(f.Stats.AckedBytes)
	reg.Counter(fmt.Sprintf("libra_flow_lost_bytes_total{cca=%q}", name), "lost bytes by controller").
		Add(f.Stats.LostBytes)

	lb, ok := m.Ctrl.(*core.Libra)
	if !ok {
		return
	}
	tel := lb.Telemetry()
	reg.Counter("libra_cycles_total", "completed control cycles").Add(int64(tel.Cycles))
	reg.Counter("libra_cycles_skipped_total", "cycles repeated for lack of feedback").Add(int64(tel.Skipped))
	for c := core.CandPrev; c <= core.CandRL; c++ {
		reg.Counter(fmt.Sprintf("libra_cycle_wins_total{cand=%q}", c.String()),
			"cycles won per candidate (Fig. 17)").Add(int64(tel.Wins[c]))
	}
	cycleLen := reg.Histogram("libra_cycle_len_ms", "control-cycle length", telemetry.CycleLenBucketsMs())
	utility := reg.Histogram("libra_cycle_utility", "winning candidate utility per cycle", telemetry.UtilityBuckets())
	for _, rec := range lb.CycleLog() {
		cycleLen.Observe(float64(rec.End-rec.Start) / float64(time.Millisecond))
		if rec.Skipped {
			continue
		}
		switch rec.Winner {
		case core.CandClassic:
			utility.Observe(rec.UCl)
		case core.CandRL:
			utility.Observe(rec.URl)
		default:
			if rec.HavePrev {
				utility.Observe(rec.UPrev)
			}
		}
	}
}

// linkHelp is the help text of the per-link series.
type linkHelp struct{ drops, dropped, marked, delivered string }

var (
	hopHelp = linkHelp{"per-hop drops by reason", "bytes dropped per hop",
		"packets CE-marked per hop", "bytes serialized per hop"}
	bottleneckHelp = linkHelp{"bottleneck drops by reason", "bytes dropped at the bottleneck",
		"packets CE-marked at the bottleneck", "bytes serialized through the bottleneck"}
)

// series names a metric with a literal label block built from the
// non-empty labels ("name" alone when there are none).
func series(name string, labels ...string) string {
	var set []string
	for _, l := range labels {
		if l != "" {
			set = append(set, l)
		}
	}
	if len(set) == 0 {
		return name
	}
	return name + "{" + strings.Join(set, ",") + "}"
}

// recordLinks pushes every link's summary into the registry, then the
// main route's bottleneck utilisation (util) and mean occupancy as the
// run-level gauges. Links go in construction order and reasons in a
// fixed order, so metric registration (and therefore help-text
// attribution) never depends on map iteration. A labelled link records
// link-labelled series; the single bottleneck's unlabelled link keeps
// the pre-topology names and help text, and its own utilisation is the
// run-level gauge. Call once per run: the link counters are cumulative.
func (rc *RunContext) recordLinks(tp *netem.Topology, bott *netem.Link, util float64, d time.Duration) {
	reg := rc.Metrics
	for _, l := range tp.Links() {
		sel, help := "", bottleneckHelp
		if l.Label() != "" {
			sel, help = fmt.Sprintf("link=%q", l.Label()), hopHelp
		}
		ds := l.DropStats()
		for _, rv := range []struct {
			reason string
			v      int64
		}{
			{telemetry.ReasonTail, ds.Tail},
			{telemetry.ReasonChannel, ds.Channel},
			{telemetry.ReasonAQM, ds.AQM},
			{telemetry.ReasonBlackout, ds.Blackout},
			{telemetry.ReasonBurst, ds.Burst},
		} {
			reg.Counter(series("libra_link_drops_total", sel, fmt.Sprintf("reason=%q", rv.reason)),
				help.drops).Add(rv.v)
		}
		reg.Counter(series("libra_link_dropped_bytes_total", sel), help.dropped).Add(ds.Bytes)
		reg.Counter(series("libra_link_marked_total", sel), help.marked).Add(ds.Marked)
		reg.Counter(series("libra_link_delivered_bytes_total", sel), help.delivered).Add(l.DeliveredBytes())
		if sel != "" {
			reg.Gauge(series("libra_link_utilization", sel),
				"per-hop delivered bytes / mean capacity of the last recorded run").
				Set(tp.LinkUtilization(l, d))
		}
	}
	reg.Gauge("libra_link_utilization", "delivered bytes / mean capacity of the last recorded run").
		Set(util)
	reg.Gauge("libra_link_mean_queue_bytes", "time-averaged bottleneck occupancy of the last recorded run").
		Set(bott.MeanQueueBytes(tp.Eng.Now()))
}

// EmitSpan emits a harness-level causal-span boundary (scenario, flow,
// experiment) on the context's tracer. t is virtual time in
// nanoseconds; flow -1 marks run-scoped spans. The spans package folds
// these into the Chrome-trace hierarchy above the core's cycle/stage
// spans. No-op when tracing is off.
func (rc *RunContext) EmitSpan(t int64, flow int, name string, begin bool) {
	if !telemetry.Enabled(rc.Tracer) {
		return
	}
	reason := telemetry.SpanEnd
	if begin {
		reason = telemetry.SpanBegin
	}
	e := telemetry.Event{T: t, Type: telemetry.TypeSpan, Flow: flow, Reason: reason, Name: name}
	rc.Tracer.Emit(&e)
}

// EmitProfile binds a flow to a utility-profile label in the event
// stream (TypeProfile). Emit once per flow, before its first control
// event, so the time-series collector and the analyzer aggregate the
// whole flow under the profile. No-op when tracing is off.
func (rc *RunContext) EmitProfile(t int64, flow int, profile string) {
	if profile == "" || !telemetry.Enabled(rc.Tracer) {
		return
	}
	e := telemetry.Event{T: t, Type: telemetry.TypeProfile, Flow: flow, Name: profile}
	rc.Tracer.Emit(&e)
}

// EmitAnomaly emits an anomaly marker (reason per the telemetry
// Anomaly* constants) into the event stream, where the flight recorder
// picks it up as a dump trigger. No-op when tracing is off.
func (rc *RunContext) EmitAnomaly(t int64, flow int, reason string) {
	if !telemetry.Enabled(rc.Tracer) {
		return
	}
	e := telemetry.Event{T: t, Type: telemetry.TypeAnomaly, Flow: flow, Reason: reason}
	rc.Tracer.Emit(&e)
}

// AttachTracer wires the context's tracer into a freshly built
// controller, when one is configured and the controller supports it.
func (rc *RunContext) AttachTracer(ctrl any, flowID int) {
	if !telemetry.Enabled(rc.Tracer) {
		return
	}
	if tb, ok := ctrl.(telemetry.Traceable); ok {
		tb.SetTracer(rc.Tracer, flowID)
	}
}
