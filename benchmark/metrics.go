package main

// Metric describes one reported figure. Bound applies to end-to-end
// metrics only: the share of the parent's median by which the metric
// may worsen before a change counts as a regression.
type Metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	// Source says where the number comes from; Moves names the
	// end-to-end metric and workload a per-layer metric should move.
	Source string
	Moves  string
}

// endToEnd is reported by untraced runs, on every workload.
var endToEnd = []Metric{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25,
		Source: "median wall-clock of one pass over the workload's inputs"},
	{Name: "sim_s_per_s", Unit: "1/s", Better: "higher", Bound: 0.25,
		Source: "simulated seconds per pass (telemetry.Health) / pass wall-clock, median over passes"},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Source: "median time to load the shipped models/, over 15 samples of 25 loads before the timed phase"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15,
		Source: "VmHWM over the timed phase only (high-water mark reset through /proc/self/clear_refs after set-up and checks)"},
	{Name: "flow_thr_mbps", Unit: "Mbps", Better: "higher", Bound: 0.2,
		Source: "mean of libra_flow_throughput_mbps over every observed flow of a pass"},
	{Name: "flow_rtt_ms", Unit: "ms", Better: "lower", Bound: 0.2,
		Source: "mean per-flow RTT over the flows of a pass with at least one RTT sample"},
}

// perLayer is reported by traced runs, on every workload; a layer that
// does not run on a workload reports 0.
var perLayer = []Metric{
	// exp / sweep: job spans around each RunFlow/RunFlows call.
	{Name: "exp.jobs", Unit: "count", Better: "higher", Source: "jobs per pass (lab evaluations on lab-traced)"},
	{Name: "exp.jobs_failed", Unit: "count", Better: "lower", Source: "jobs per pass failing an output check"},
	{Name: "exp.job_ms.p50", Unit: "ms", Better: "lower", Source: "job span durations (0 where jobs run inside lab.Tournament)", Moves: "wall_s"},
	{Name: "exp.job_ms.p90", Unit: "ms", Better: "lower", Source: "job span durations", Moves: "wall_s"},
	{Name: "exp.job_ms.samples", Unit: "count", Better: "higher", Source: "job spans behind the percentiles"},
	{Name: "sweep.busy_frac", Unit: "fraction", Better: "higher", Source: "job span time / (workers x sweep span)", Moves: "wall_s wherever jobs are unbalanced"},
	// sim
	{Name: "sim.events", Unit: "count", Better: "lower", Source: "engine events per pass (telemetry.Health)"},
	{Name: "sim.events_per_sim_s", Unit: "1/s", Better: "lower", Source: "engine events per simulated second"},
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower", Source: "(job span time - controller ComputeNs) / engine events", Moves: "wall_s on dc-fabric and paper-quick"},
	// netem
	{Name: "netem.acks", Unit: "count", Better: "higher", Source: "libra_flow_acked_bytes_total / MSS, every observed flow"},
	{Name: "netem.inflight_pkts", Unit: "pkts", Better: "lower", Source: "Little's-law window (ack rate x mean RTT), throughput-weighted over flows with RTT samples", Moves: "wall_s on paper-quick (per-ACK shift)"},
	{Name: "netem.ns_per_ack", Unit: "ns", Better: "lower", Source: "(job span time - controller ComputeNs) / main-flow ACKs", Moves: "wall_s on paper-quick; none on dc-fabric"},
	{Name: "netem.goodput_share", Unit: "fraction", Better: "higher", Source: "acked / sent bytes of the main flows (registry bytes on lab-traced)", Moves: "wall_s on dc-fabric"},
	{Name: "netem.loss_frac", Unit: "fraction", Better: "lower", Source: "libra_flow_lost_bytes_total / (acked + lost bytes)", Moves: "flow_thr_mbps and flow_rtt_ms"},
	{Name: "netem.drops.tail", Unit: "count", Better: "lower", Source: "libra_link_drops_total{reason=tail}, every link", Moves: "flow_thr_mbps and flow_rtt_ms"},
	{Name: "netem.drops.aqm", Unit: "count", Better: "lower", Source: "libra_link_drops_total{reason=aqm}, every link", Moves: "flow_thr_mbps and flow_rtt_ms"},
	{Name: "netem.drops.channel", Unit: "count", Better: "lower", Source: "libra_link_drops_total{reason=channel}, every link", Moves: "flow_thr_mbps on lab-traced"},
	{Name: "netem.drops.blackout", Unit: "count", Better: "lower", Source: "libra_link_drops_total{reason=blackout}, every link", Moves: "flow_thr_mbps on lab-traced"},
	{Name: "netem.drops.burst", Unit: "count", Better: "lower", Source: "libra_link_drops_total{reason=burst}, every link", Moves: "flow_thr_mbps on lab-traced"},
	{Name: "netem.ce_marks", Unit: "count", Better: "lower", Source: "libra_link_marked_total, every link", Moves: "flow_rtt_ms on dc-fabric"},
	{Name: "netem.starved_flows", Unit: "count", Better: "lower", Source: "observed flows with no RTT sample (left out of flow_rtt_ms)", Moves: "flow_thr_mbps"},
	// cc: Flow.Stats.ComputeNs of classic-CCA main flows.
	{Name: "cc.compute_ms", Unit: "ms", Better: "lower", Source: "ComputeNs of classic-CCA main flows", Moves: "wall_s on paper-quick"},
	{Name: "cc.ns_per_ack.cubic", Unit: "ns", Better: "lower", Source: "ComputeNs / ACKs of cubic main flows", Moves: "wall_s on paper-quick"},
	{Name: "cc.ns_per_ack.bbr", Unit: "ns", Better: "lower", Source: "ComputeNs / ACKs of bbr main flows (windowed-max filter)", Moves: "wall_s on paper-quick"},
	{Name: "cc.ns_per_ack.copa", Unit: "ns", Better: "lower", Source: "ComputeNs / ACKs of copa main flows", Moves: "wall_s on paper-quick"},
	{Name: "cc.ns_per_ack.sprout", Unit: "ns", Better: "lower", Source: "ComputeNs / ACKs of sprout main flows", Moves: "wall_s on paper-quick"},
	{Name: "cc.ns_per_ack.vivace", Unit: "ns", Better: "lower", Source: "ComputeNs / ACKs of vivace main flows", Moves: "wall_s on paper-quick"},
	{Name: "cc.ns_per_ack.proteus", Unit: "ns", Better: "lower", Source: "ComputeNs / ACKs of proteus main flows", Moves: "wall_s on paper-quick"},
	{Name: "cc.ns_per_ack.remy", Unit: "ns", Better: "lower", Source: "ComputeNs / ACKs of remy main flows", Moves: "wall_s on paper-quick"},
	{Name: "cc.ns_per_ack.indigo", Unit: "ns", Better: "lower", Source: "ComputeNs / ACKs of indigo main flows", Moves: "wall_s on paper-quick"},
	{Name: "cc.ns_per_ack.dctcp", Unit: "ns", Better: "lower", Source: "ComputeNs / ACKs of dctcp main flows", Moves: "wall_s on dc-fabric"},
	// core: the Libra cycle.
	{Name: "core.cycles", Unit: "count", Better: "higher", Source: "libra_cycles_total"},
	{Name: "core.compute_ms", Unit: "ms", Better: "lower", Source: "ComputeNs of Libra-family main flows (classic, inner RL and the cycle)", Moves: "wall_s on paper-quick"},
	{Name: "core.ns_per_cycle", Unit: "ns", Better: "lower", Source: "core.compute_ms / core.cycles", Moves: "wall_s on paper-quick"},
	{Name: "core.cycle_utility", Unit: "utility", Better: "higher", Source: "mean of libra_cycle_utility: Eq. 1 utility of each cycle's winner (negative, heavy-tailed)"},
	// rlcc / rl / nn
	{Name: "rlcc.decisions", Unit: "count", Better: "higher", Source: "MI decisions of batcher-eligible rlcc main flows (aurora, mod-rl)"},
	{Name: "rlcc.compute_ms", Unit: "ms", Better: "lower", Source: "ComputeNs summed over aurora, mod-rl and orca main flows (the batcher charges a cohort's GEMM to its first due flow)", Moves: "wall_s on dc-fabric"},
	{Name: "rlcc.ns_per_decision", Unit: "ns", Better: "lower", Source: "ComputeNs of aurora and mod-rl main flows / rlcc.decisions", Moves: "wall_s on dc-fabric"},
	{Name: "rlcc.gather_instants", Unit: "count", Better: "lower", Source: "RunContext.Batch Instants: simulated instants the batcher gathered", Moves: "wall_s on dc-fabric"},
	{Name: "rlcc.gemm_batches", Unit: "count", Better: "higher", Source: "RunContext.Batch Batches: multi-row GEMMs (0 on paper-quick)", Moves: "wall_s on dc-fabric"},
	{Name: "rlcc.gemm_rows", Unit: "count", Better: "higher", Source: "RunContext.Batch Rows: decisions served by multi-row GEMMs", Moves: "wall_s on dc-fabric"},
	{Name: "rlcc.rows_per_gemm", Unit: "rows", Better: "higher", Source: "gemm_rows / gemm_batches", Moves: "wall_s on dc-fabric"},
	{Name: "rlcc.rows_per_instant", Unit: "rows", Better: "higher", Source: "rlcc.decisions / gather_instants: forward passes served per gathered instant (ROADMAP's keep-or-delete rule for the batcher)", Moves: "wall_s on dc-fabric"},
	{Name: "rlcc.batched_share", Unit: "fraction", Better: "higher", Source: "gemm_rows / rlcc.decisions", Moves: "wall_s on dc-fabric"},
	{Name: "rl.load_ms", Unit: "ms", Better: "lower", Source: "setup_s in milliseconds: one load of models/", Moves: "setup_s"},
	{Name: "rl.train_s", Unit: "s", Better: "lower", Source: "one quick-training span before the timed phase of a traced lab-traced run (0 elsewhere)", Moves: "what libra-lab pays before its first evaluation"},
	// telemetry / analyze: each rig sink wrapped in a timing tracer.
	{Name: "telemetry.events", Unit: "count", Better: "lower", Source: "events the JSONL recorder encoded (0 without the rig)", Moves: "wall_s on lab-traced"},
	{Name: "telemetry.bytes_out", Unit: "bytes", Better: "lower", Source: "bytes the recorder and the time-series snapshot wrote", Moves: "wall_s on lab-traced"},
	{Name: "telemetry.flight_dumps", Unit: "count", Better: "lower", Source: "FlightRecorder.Dumps()", Moves: "wall_s on lab-traced"},
	{Name: "telemetry.sink_share", Unit: "fraction", Better: "lower", Source: "time inside the rig's sink Emit calls / pass wall-clock", Moves: "wall_s on lab-traced"},
	{Name: "telemetry.recorder_ns_per_event", Unit: "ns", Better: "lower", Source: "timed Emit of the JSONL recorder", Moves: "wall_s on lab-traced"},
	{Name: "telemetry.flight_ns_per_event", Unit: "ns", Better: "lower", Source: "timed Emit of the flight recorder", Moves: "wall_s on lab-traced"},
	{Name: "telemetry.ts_ns_per_event", Unit: "ns", Better: "lower", Source: "timed Emit of the time-series collector", Moves: "wall_s on lab-traced"},
	{Name: "analyze.ns_per_event", Unit: "ns", Better: "lower", Source: "timed Emit of the anomaly-tap analyzer, with the dumps it cuts", Moves: "wall_s on lab-traced"},
	// lab
	{Name: "lab.evals", Unit: "count", Better: "higher", Source: "libra_lab_evals_total"},
	{Name: "lab.evals_failed", Unit: "count", Better: "lower", Source: "failed tournament cells or aborted flow runs, whichever is larger"},
	{Name: "lab.evals_per_s", Unit: "1/s", Better: "higher", Source: "lab.evals / tournament span", Moves: "wall_s on lab-traced"},
	// Go runtime: deltas over a pass from runtime/metrics.
	{Name: "runtime.alloc_mb", Unit: "MB", Better: "lower", Source: "/gc/heap/allocs:bytes delta", Moves: "peak_rss_mb on lab-traced; wall_s"},
	{Name: "runtime.alloc_bytes_per_event", Unit: "bytes", Better: "lower", Source: "heap allocation delta / engine events", Moves: "peak_rss_mb on lab-traced; wall_s"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", Source: "/gc/cycles/total:gc-cycles delta", Moves: "peak_rss_mb on lab-traced; wall_s"},
	{Name: "runtime.gc_cpu_share", Unit: "fraction", Better: "lower", Source: "/cpu/classes/gc/total / /cpu/classes/total delta", Moves: "wall_s"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", Source: "median traced pass wall / median untraced pass wall - 1, both from the traced run"},
}

// classicCCAs are the controllers reported under cc.ns_per_ack.<cca>.
var classicCCAs = []string{"cubic", "bbr", "copa", "sprout", "vivace", "proteus", "remy", "indigo", "dctcp"}

// family names the layer a main flow's controller time belongs to.
func family(cca string) string {
	switch cca {
	case "c-libra", "b-libra", "cl-libra", "w-libra", "i-libra", "d-libra":
		return "core"
	case "aurora", "orca", "mod-rl":
		return "rlcc"
	}
	return "cc"
}
