package main

import (
	"sort"
	"strings"
	"time"

	"libra/internal/telemetry"
)

// layerMetrics derives the per-layer view of one traced pass from its
// spans (jobs, sweep, tournament, sink Emits) and the counters the
// program exposes. setupS is the median set-up time of the run, trainS
// the time of its one quick-training (0 if it trained none).
func layerMetrics(p *PassResult, setupS, trainS float64) map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, pm := range perLayer {
		m[pm.Name] = 0
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	ms := func(ns float64) float64 { return ns / float64(time.Millisecond) }
	c := p.Snap.Counters

	m["exp.jobs"] = float64(p.Attempted)
	m["exp.jobs_failed"] = float64(p.Failed)
	m["sim.events"] = float64(p.Events)
	m["sim.events_per_sim_s"] = ratio(float64(p.Events), float64(p.SimNs)/1e9)
	m["runtime.alloc_mb"] = float64(p.Runtime.AllocBytes) / 1e6
	m["runtime.alloc_bytes_per_event"] = ratio(float64(p.Runtime.AllocBytes), float64(p.Events))
	m["runtime.gc_cycles"] = float64(p.Runtime.GCCycles)
	m["runtime.gc_cpu_share"] = ratio(p.Runtime.GCCPUs, p.Runtime.CPUs)
	m["core.cycles"] = float64(c["libra_cycles_total"])
	m["core.cycle_utility"] = p.Utility
	m["netem.starved_flows"] = float64(p.Starved)
	m["rl.load_ms"] = setupS * 1e3
	m["rl.train_s"] = trainS

	// Flow byte totals and links, from the registry; these also cover
	// the flows lab.Tournament runs out of the benchmark's reach.
	var regAcked, regLost float64
	for name, v := range c {
		switch {
		case strings.HasPrefix(name, "libra_flow_acked_bytes_total"):
			regAcked += float64(v)
		case strings.HasPrefix(name, "libra_flow_lost_bytes_total"):
			regLost += float64(v)
		case strings.HasPrefix(name, "libra_link_marked_total"):
			m["netem.ce_marks"] += float64(v)
		case strings.HasPrefix(name, "libra_link_drops_total"):
			for _, r := range dropReasons {
				if strings.Contains(name, `reason="`+r+`"`) {
					m["netem.drops."+r] += float64(v)
				}
			}
		}
	}
	m["netem.acks"] = regAcked / float64(mss)
	m["netem.loss_frac"] = ratio(regLost, regAcked+regLost)

	if p.Jobs == nil {
		// Acked and lost bytes are what the registry sees of the bytes
		// sent; bytes still in flight at the end are not counted.
		m["netem.goodput_share"] = ratio(regAcked, regAcked+regLost)
		tournamentLayers(m, p, ratio)
		return m
	}

	// Job and sweep spans.
	durs := make([]float64, len(p.Jobs))
	var busy float64
	first, last := p.Jobs[0].StartNs, p.Jobs[0].EndNs
	for i, j := range p.Jobs {
		durs[i] = float64(j.EndNs - j.StartNs)
		busy += durs[i]
		first, last = min(first, j.StartNs), max(last, j.EndNs)
	}
	sort.Float64s(durs)
	m["exp.job_ms.p50"] = ms(quantile(durs, 0.5))
	m["exp.job_ms.p90"] = ms(quantile(durs, 0.9))
	m["exp.job_ms.samples"] = float64(len(durs))
	m["sweep.busy_frac"] = ratio(busy, benchWorkers*float64(last-first))

	// Main flows: netem, cc, core and rlcc.
	var sent, acked, ctrlNs, wInflight, wThr float64
	var ccNs, coreNs, rlNs, rlDecNs, decisions float64
	perCCA := map[string][2]float64{} // compute ns, acks
	for _, j := range p.Jobs {
		for _, f := range j.Flows {
			sent += float64(f.Sent)
			acked += float64(f.Acked)
			ctrlNs += float64(f.ComputeNs)
			if f.RTTSamples > 0 {
				// Little's law: packets in flight = ack rate x RTT.
				inflight := f.ThrMbps * 1e6 / 8 / float64(mss) * f.RTTMs / 1e3
				wInflight += f.ThrMbps * inflight
				wThr += f.ThrMbps
			}
			decisions += float64(f.Decisions)
			if f.Decisions > 0 {
				rlDecNs += float64(f.ComputeNs)
			}
			switch family(f.CCA) {
			case "core":
				coreNs += float64(f.ComputeNs)
			case "rlcc":
				rlNs += float64(f.ComputeNs)
			default:
				ccNs += float64(f.ComputeNs)
				v := perCCA[f.CCA]
				v[0] += float64(f.ComputeNs)
				v[1] += float64(f.Acked) / float64(mss)
				perCCA[f.CCA] = v
			}
		}
	}
	m["netem.ns_per_ack"] = ratio(busy-ctrlNs, acked/float64(mss))
	m["sim.ns_per_event"] = ratio(busy-ctrlNs, float64(p.Events))
	m["netem.inflight_pkts"] = ratio(wInflight, wThr)
	m["netem.goodput_share"] = ratio(acked, sent)
	m["cc.compute_ms"] = ms(ccNs)
	for _, cca := range classicCCAs {
		if v, ok := perCCA[cca]; ok {
			m["cc.ns_per_ack."+cca] = ratio(v[0], v[1])
		}
	}
	m["core.compute_ms"] = ms(coreNs)
	m["core.ns_per_cycle"] = ratio(coreNs, m["core.cycles"])
	m["rlcc.compute_ms"] = ms(rlNs)
	m["rlcc.decisions"] = decisions
	m["rlcc.ns_per_decision"] = ratio(rlDecNs, decisions)
	m["rlcc.gather_instants"] = float64(p.Batch.Instants)
	m["rlcc.gemm_batches"] = float64(p.Batch.Batches)
	m["rlcc.gemm_rows"] = float64(p.Batch.Rows)
	m["rlcc.rows_per_gemm"] = ratio(float64(p.Batch.Rows), float64(p.Batch.Batches))
	m["rlcc.rows_per_instant"] = ratio(decisions, float64(p.Batch.Instants))
	m["rlcc.batched_share"] = ratio(float64(p.Batch.Rows), decisions)
	return m
}

// tournamentLayers fills the metrics of a lab tournament pass: the
// rig's sinks, the lab, and what the registry tells of the flows the
// tournament ran. Job-span metrics stay 0: the tournament's jobs run
// inside lab.Tournament, out of the benchmark's reach.
func tournamentLayers(m map[string]float64, p *PassResult, ratio func(a, b float64) float64) {
	// Little's law over the mean flow: mean throughput x mean RTT.
	m["netem.inflight_pkts"] = histMean(p.Snap, "libra_flow_throughput_mbps") * 1e6 / 8 / float64(mss) * p.RTTMs / 1e3

	m["telemetry.events"] = float64(p.TelEvents)
	m["telemetry.bytes_out"] = float64(p.BytesOut)
	m["telemetry.flight_dumps"] = float64(p.FlightDumps)
	var sinkNs float64
	for _, s := range p.Sinks {
		sinkNs += float64(s.Ns)
		per := ratio(float64(s.Ns), float64(s.Events))
		switch s.Name {
		case "recorder":
			m["telemetry.recorder_ns_per_event"] = per
		case "flight":
			m["telemetry.flight_ns_per_event"] = per
		case "ts":
			m["telemetry.ts_ns_per_event"] = per
		case "analyze":
			m["analyze.ns_per_event"] = per
		}
	}
	m["telemetry.sink_share"] = ratio(sinkNs, float64(p.WallNs))
	m["lab.evals"] = float64(p.Snap.Counters["libra_lab_evals_total"])
	m["lab.evals_failed"] = float64(p.Failed)
	m["lab.evals_per_s"] = ratio(m["lab.evals"], float64(p.TournamentNs)/1e9)
}

// dropReasons orders the per-reason drop counters.
var dropReasons = [5]string{
	telemetry.ReasonTail, telemetry.ReasonChannel, telemetry.ReasonAQM,
	telemetry.ReasonBlackout, telemetry.ReasonBurst,
}

// quantile returns the q-quantile of sorted values (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
