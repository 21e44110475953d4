package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// finite reports whether every value is a real number.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// jobFailure returns why a job's outputs are invalid, or "" when they
// pass: a flow aborted (Metrics.Failed or libra_flow_failures_total), a
// non-finite output, more bytes acked plus lost than sent, or a link
// utilisation above 1.
func jobFailure(j JobResult) string {
	if j.Failures > 0 {
		return "libra_flow_failures_total > 0"
	}
	if j.MaxUtil > 1 || !finite(j.MaxUtil) {
		return fmt.Sprintf("link utilisation %v", j.MaxUtil)
	}
	for _, f := range j.Flows {
		switch {
		case f.Failed:
			return f.CCA + ": flow failed"
		case !finite(f.ThrMbps, f.RTTMs, f.Loss, f.Util):
			return f.CCA + ": non-finite output"
		case f.Acked+f.Lost > f.Sent:
			return fmt.Sprintf("%s: acked %d + lost %d > sent %d bytes", f.CCA, f.Acked, f.Lost, f.Sent)
		case f.Util > 1:
			return fmt.Sprintf("%s: utilisation %v", f.CCA, f.Util)
		}
	}
	return ""
}

// checkPass counts the pass's attempted and failed jobs and records why
// each failure happened. In a tournament pass the jobs are the lab's
// evaluations, which run inside lab.Tournament: they are checked as a
// whole (see tournamentFailures).
func checkPass(p *PassResult) {
	if p.Board != nil {
		p.Attempted = p.Snap.Counters["libra_lab_evals_total"]
		p.Why = tournamentFailures(p)
		// A failed cell is also an aborted flow run, so the larger of
		// the two counts the failed evaluations.
		for _, e := range p.Board.Entries {
			p.Failed += int64(e.Failures)
		}
		p.Failed = max(p.Failed, p.Snap.Counters["libra_flow_failures_total"])
		if p.Failed == 0 && len(p.Why) > 0 {
			p.Failed = 1
		}
		if p.Attempted == 0 {
			p.Attempted, p.Failed = 1, 1
			p.Why = append(p.Why, "the tournament ran no evaluation")
		}
	}
	for _, j := range p.Jobs {
		p.Attempted++
		if why := jobFailure(j); why != "" {
			p.Failed++
			p.Why = append(p.Why, fmt.Sprintf("job %d: %s", p.Attempted-1, why))
		}
	}
	if !finite(p.Utility, p.ThrMbps, p.RTTMs) || p.ThrMbps == 0 || p.RTTMs == 0 {
		p.Failed++
		p.Why = append(p.Why, fmt.Sprintf("modelled outputs: throughput %v, rtt %v, utility %v",
			p.ThrMbps, p.RTTMs, p.Utility))
	}
}

// tournamentFailures checks a tournament pass from what leaves
// lab.Tournament: failed cells and aborted flows, non-finite
// leaderboard scores, the pass's acked plus lost bytes against the
// bytes of every enqueue and drop event the rig saw, and the link
// utilisation gauges the registry keeps. A registry gauge holds the
// last evaluation merged on each link, so utilisation is checked on
// those evaluations only; the per-flow checks of jobFailure need flows
// the tournament does not return.
func tournamentFailures(p *PassResult) []string {
	var why []string
	for _, e := range p.Board.Entries {
		if e.Failures > 0 {
			why = append(why, fmt.Sprintf("%s: %d failed lab evaluations", e.CCA, e.Failures))
		}
		if !finite(e.MeanScore, e.WorstScore, e.Baseline, e.SLO) {
			why = append(why, e.CCA+": non-finite leaderboard score")
		}
	}
	if n := p.Snap.Counters["libra_flow_failures_total"]; n > 0 {
		why = append(why, fmt.Sprintf("libra_flow_failures_total %d", n))
	}
	var acked, lost int64
	for name, v := range p.Snap.Counters {
		switch {
		case strings.HasPrefix(name, "libra_flow_acked_bytes_total"):
			acked += v
		case strings.HasPrefix(name, "libra_flow_lost_bytes_total"):
			lost += v
		}
	}
	if acked+lost > p.LinkBytes {
		why = append(why, fmt.Sprintf("acked %d + lost %d bytes > %d bytes enqueued or dropped", acked, lost, p.LinkBytes))
	}
	for name, v := range p.Snap.Gauges {
		if strings.HasPrefix(name, "libra_link_utilization") && (v > 1 || !finite(v)) {
			why = append(why, fmt.Sprintf("%s %v", name, v))
		}
	}
	return why
}

// wallClockHistograms are registry entries derived from the wall clock
// (controller compute time), left out of the digest.
var wallClockHistograms = map[string]bool{"libra_flow_cpu_frac": true}

// digestPass hashes every deterministic output of a pass: the
// leaderboard of a tournament, each job's flow scalars in plan order,
// the pass registry and the simulated totals. Wall-clock figures
// (spans, controller compute time) are left out, so equal digests mean
// equal simulated outputs.
func digestPass(p *PassResult, board []byte) string {
	h := sha256.New()
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	h.Write(board)
	for i, j := range p.Jobs {
		fmt.Fprintf(h, "job %d fail=%d util=%s\n", i, j.Failures, g(j.MaxUtil))
		for _, f := range j.Flows {
			fmt.Fprintf(h, " %s %t %s %s %s %s %d %d %d %d %d\n", f.CCA, f.Failed,
				g(f.ThrMbps), g(f.RTTMs), g(f.Loss), g(f.Util), f.RTTSamples, f.Sent, f.Acked, f.Lost, f.Decisions)
		}
	}
	for _, n := range sortedKeys(p.Snap.Counters) {
		fmt.Fprintf(h, "c %s %d\n", n, p.Snap.Counters[n])
	}
	for _, n := range sortedKeys(p.Snap.Gauges) {
		fmt.Fprintf(h, "g %s %s\n", n, g(p.Snap.Gauges[n]))
	}
	for _, n := range sortedKeys(p.Snap.Histograms) {
		if wallClockHistograms[n] {
			continue
		}
		hs := p.Snap.Histograms[n]
		fmt.Fprintf(h, "h %s %d %s %v\n", n, hs.Count, g(hs.Sum), hs.Counts)
	}
	fmt.Fprintf(h, "sim=%d events=%d batch=%+v\n", p.SimNs, p.Events, p.Batch)
	return fmt.Sprintf("%x", h.Sum(nil))
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
