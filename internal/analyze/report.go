package analyze

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"sort"
	"time"

	"libra/internal/stats"
	"libra/internal/telemetry"
)

// Quantiles summarises one sketched quantity.
type Quantiles struct {
	N    uint64  `json:"n"`
	Mean float64 `json:"mean"`
	Min  float64 `json:"min"`
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
}

// QuantilesOf extracts the standard summary from a sketch.
func QuantilesOf(s *stats.Sketch) Quantiles {
	return Quantiles{
		N:    s.Count(),
		Mean: s.Mean(),
		Min:  s.Min(),
		P50:  s.Quantile(0.50),
		P95:  s.Quantile(0.95),
		P99:  s.Quantile(0.99),
		Max:  s.Max(),
	}
}

// WinnerShare is one bar of the Fig. 17 winner histogram.
type WinnerShare struct {
	Winner string  `json:"winner"`
	Wins   int64   `json:"wins"`
	Share  float64 `json:"share"` // fraction of decided cycles
}

// StageShare attributes wall-clock to one control-cycle stage.
type StageShare struct {
	Stage string  `json:"stage"`
	Ms    float64 `json:"ms"`
	Frac  float64 `json:"frac"` // of attributed stage time
}

// Decomp is the per-cycle mean Eq. 1 utility decomposition of the
// winning candidate: MeanUtility ≈ ThrTerm - DelayPenalty - LossPenalty.
type Decomp struct {
	Cycles       int64   `json:"cycles"`
	MeanUtility  float64 `json:"mean_utility"`
	ThrTerm      float64 `json:"thr_term"`
	DelayPenalty float64 `json:"delay_penalty"`
	LossPenalty  float64 `json:"loss_penalty"`
}

// FlowReport is one flow's analysis.
type FlowReport struct {
	ID             int           `json:"id"`
	Name           string        `json:"name,omitempty"`
	Events         int64         `json:"events"`
	Cycles         int64         `json:"cycles"`
	Decided        int64         `json:"decided"`
	Skipped        int64         `json:"skipped"`
	EarlyExits     int64         `json:"early_exits"`
	EarlyExitRate  float64       `json:"early_exit_rate"`
	Winners        []WinnerShare `json:"winners"`
	Stages         []StageShare  `json:"stages"`
	Decomp         Decomp        `json:"utility_decomposition"`
	RateMbps       Quantiles     `json:"rate_mbps"`
	RTTMs          Quantiles     `json:"rtt_ms"`
	CycleMs        Quantiles     `json:"cycle_ms"`
	QueueBytes     Quantiles     `json:"queue_bytes"`
	SentBytes      int64         `json:"sent_bytes"`
	Drops          int64         `json:"drops"`
	MaxNoAckStreak int64         `json:"max_no_ack_streak"`
	// Numeric anomaly counters (machine-readable companions to the
	// formatted Anomalies strings): post-blackout rate collapses,
	// utility-regression episodes, and no-ACK streak episodes. The lab's
	// tournament aggregates these per CCA.
	Collapses     int64    `json:"collapses"`
	Regressions   int64    `json:"regressions"`
	NoAckEpisodes int64    `json:"no_ack_episodes"`
	Anomalies     []string `json:"anomalies"`
}

// LinkReport aggregates the link-level events — either the whole
// trace's aggregate view (Label empty) or one labelled hop of a
// multi-hop topology.
type LinkReport struct {
	Label        string           `json:"label,omitempty"`
	QueueBytes   Quantiles        `json:"queue_bytes"`
	CapacityMbps Quantiles        `json:"capacity_mbps"`
	Drops        map[string]int64 `json:"drops"`
	DropBytes    int64            `json:"drop_bytes"`
	FaultWindows int64            `json:"fault_windows"`
	FaultPackets int64            `json:"fault_packets"`
	Blackouts    int64            `json:"blackouts"`
}

// FairnessReport is the windowed Jain index across flows, over the
// windows of every run in which at least two flows sent.
type FairnessReport struct {
	WindowMs float64 `json:"window_ms"`
	Flows    int     `json:"flows"`
	Windows  int     `json:"windows"`
	Mean     float64 `json:"mean"`
	Min      float64 `json:"min"`
	P50      float64 `json:"p50"`
	Below90  int     `json:"below_0_9"`
}

// Report is the full machine-readable analysis.
type Report struct {
	Events int64            `json:"events"`
	ByType map[string]int64 `json:"events_by_type"`
	SpanMs float64          `json:"span_ms"` // virtual time of the last event
	Flows  []FlowReport     `json:"flows"`
	Link   LinkReport       `json:"link"`
	// Links attributes drops/queueing/faults to individual labelled
	// hops; empty for single-bottleneck traces, sorted by label.
	Links    []LinkReport   `json:"links,omitempty"`
	Fairness FairnessReport `json:"fairness"`
	// Profiles/SLOs/ProfileFairness appear when the stream bound flows
	// to utility profiles (TypeProfile events): per-profile aggregates,
	// windowed SLO attainment in config order, and the cross-profile
	// Jain index over mean throughput.
	Profiles        []ProfileReport  `json:"profiles,omitempty"`
	SLOs            []SLOReport      `json:"slos,omitempty"`
	ProfileFairness *ProfileFairness `json:"profile_fairness,omitempty"`
}

// Report snapshots the analysis into a Report. Safe to call while a
// live tap is still feeding (the snapshot is taken under the lock);
// for a completed stream call Finalize first so pending anomaly
// watches resolve.
func (a *Analyzer) Report() *Report {
	a.mu.Lock()
	defer a.mu.Unlock()

	r := &Report{
		Events: a.events,
		ByType: make(map[string]int64, len(a.byType)+len(a.others)),
		SpanMs: float64(a.det.lastT) / 1e6,
		Flows:  []FlowReport{},
	}
	for i, n := range a.byType {
		if n > 0 {
			r.ByType[string(telemetry.Types[i])] = n
		}
	}
	for t, n := range a.others {
		r.ByType[string(t)] = n
	}

	ids := make([]int, 0, len(a.flows))
	for id := range a.flows {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		r.Flows = append(r.Flows, a.flowReport(a.flows[id]))
	}

	r.Link = linkReport("", &a.link)

	labels := make([]string, 0, len(a.links))
	for label := range a.links {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	for _, label := range labels {
		r.Links = append(r.Links, linkReport(label, a.links[label]))
	}

	// The open run closes into a copy of the tallies, by the step a
	// scenario span end takes.
	closed := a.closed.clone()
	a.closeRun(&closed)
	r.Fairness = a.fairnessReport(ids, closed.jains)
	r.Profiles, r.ProfileFairness = a.profileReports(closed.thr)
	r.SLOs = a.sloReports(closed.slo)
	return r
}

// linkReport snapshots one link state.
func linkReport(label string, ls *linkState) LinkReport {
	return LinkReport{
		Label:        label,
		QueueBytes:   QuantilesOf(ls.queueBytes),
		CapacityMbps: QuantilesOf(ls.capMbps),
		Drops:        maps.Clone(ls.drops),
		DropBytes:    ls.dropBytes,
		FaultWindows: ls.faultWin,
		FaultPackets: ls.faultPkt,
		Blackouts:    ls.blackouts,
	}
}

// flowReport derives one flow's report. Callers hold a.mu.
func (a *Analyzer) flowReport(fs *flowState) FlowReport {
	an := a.det.counts(fs.id)
	fr := FlowReport{
		ID:             fs.id,
		Name:           fs.name,
		Events:         fs.events,
		Cycles:         fs.decided + fs.skipped,
		Decided:        fs.decided,
		Skipped:        fs.skipped,
		EarlyExits:     fs.earlyExits,
		RateMbps:       QuantilesOf(fs.rateMbps),
		RTTMs:          QuantilesOf(fs.rttMs),
		CycleMs:        QuantilesOf(fs.cycleMs),
		QueueBytes:     QuantilesOf(fs.queueBytes),
		SentBytes:      fs.sentBytes,
		Drops:          fs.drops,
		MaxNoAckStreak: an.maxNoAckStreak,
		Collapses:      an.collapses,
		Regressions:    an.regressions,
		NoAckEpisodes:  an.noAckEpisodes,
		Anomalies:      []string{},
	}
	if fr.Cycles > 0 {
		fr.EarlyExitRate = float64(fs.earlyExits) / float64(fr.Cycles)
	}
	for i, n := range fs.wins {
		ws := WinnerShare{Winner: winnerNames[i], Wins: n}
		if fs.decided > 0 {
			ws.Share = float64(n) / float64(fs.decided)
		}
		fr.Winners = append(fr.Winners, ws)
	}
	var totalNs int64
	for _, ns := range fs.stageNs {
		totalNs += ns
	}
	for i, ns := range fs.stageNs {
		ss := StageShare{Stage: stageNames[i], Ms: float64(ns) / 1e6}
		if totalNs > 0 {
			ss.Frac = float64(ns) / float64(totalNs)
		}
		fr.Stages = append(fr.Stages, ss)
	}
	if fs.decompCycles > 0 {
		n := float64(fs.decompCycles)
		fr.Decomp = Decomp{
			Cycles:       fs.decompCycles,
			MeanUtility:  fs.uSum / n,
			ThrTerm:      fs.thrSum / n,
			DelayPenalty: fs.delaySum / n,
			LossPenalty:  fs.lossSum / n,
		}
	}

	// Anomaly flags, in a fixed order.
	if an.collapses > 0 {
		fr.Anomalies = append(fr.Anomalies,
			fmt.Sprintf("rate_collapse_after_blackout x%d (base rate stayed under 50%% of pre-outage level)", an.collapses))
	}
	if an.maxNoAckStreak >= 2 {
		fr.Anomalies = append(fr.Anomalies,
			fmt.Sprintf("no_ack_streak max %d consecutive silent cycles (%d decayed)", an.maxNoAckStreak, an.decays))
	}
	if an.regressions > 0 {
		fr.Anomalies = append(fr.Anomalies,
			fmt.Sprintf("utility_regression x%d episodes (%d cycles under 25%% of the running mean)", an.regressions, an.regressedCycles))
	}
	return fr
}

// fairnessReport summarises the windowed Jain index of every run, one
// value per window in jains: each window's index is over the flows that
// sent in its run (absent flows count as zero in a window — a silent
// flow is unfairness, not a smaller denominator), and a run in which
// fewer than two flows sent adds no window. Flows counts the flow IDs
// that sent anywhere in the trace. Callers hold a.mu.
func (a *Analyzer) fairnessReport(ids []int, jains []float64) FairnessReport {
	fr := FairnessReport{WindowMs: float64(a.cfg.Window) / 1e6}
	for _, id := range ids {
		if a.flows[id].sentBytes > 0 {
			fr.Flows++
		}
	}
	var sum float64
	min := 1.0
	for _, j := range jains {
		sum += j
		if j < min {
			min = j
		}
		if j < 0.9 {
			fr.Below90++
		}
	}
	fr.Windows = len(jains)
	if len(jains) > 0 {
		fr.Mean = sum / float64(len(jains))
		fr.Min = min
		fr.P50 = stats.Percentile(jains, 50)
	}
	return fr
}

// WriteJSON writes the report as indented JSON (map keys sort, floats
// render shortest-round-trip — deterministic for identical state).
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteText renders the human-readable report. All values derive from
// merged counts, so the text is byte-identical at any analysis worker
// count.
func (r *Report) WriteText(w io.Writer) error {
	pf := func(format string, args ...any) {
		fmt.Fprintf(w, format, args...)
	}
	pf("trace analysis: %d events over %s\n", r.Events,
		time.Duration(r.SpanMs*1e6).Round(time.Millisecond))
	types := make([]string, 0, len(r.ByType))
	for t := range r.ByType {
		types = append(types, t)
	}
	sort.Strings(types)
	pf("events by type:")
	for _, t := range types {
		pf(" %s %d", t, r.ByType[t])
	}
	pf("\n\n")

	for _, f := range r.Flows {
		name := f.Name
		if name == "" {
			name = "?"
		}
		pf("flow %d (%s): %d events\n", f.ID, name, f.Events)
		if f.Cycles > 0 {
			pf("  cycles:    %d (%d decided, %d skipped), early exits %d (%.1f%% of cycles)\n",
				f.Cycles, f.Decided, f.Skipped, f.EarlyExits, 100*f.EarlyExitRate)
		}
		if f.Decided > 0 {
			pf("  winners:  ")
			for _, ws := range f.Winners {
				pf(" %s %d (%.1f%%)", ws.Winner, ws.Wins, 100*ws.Share)
			}
			pf("\n")
		}
		if f.Decomp.Cycles > 0 {
			pf("  utility:   mean %.3f = thr %.3f - delay %.3f - loss %.3f (Eq. 1 terms, %d cycles)\n",
				f.Decomp.MeanUtility, f.Decomp.ThrTerm, f.Decomp.DelayPenalty,
				f.Decomp.LossPenalty, f.Decomp.Cycles)
		}
		if f.Cycles > 0 {
			pf("  stages:   ")
			for _, ss := range f.Stages {
				pf(" %s %.1f%%", ss.Stage, 100*ss.Frac)
			}
			pf("\n")
		}
		if f.RateMbps.N > 0 {
			pf("  rate Mbps: p50 %.2f  p95 %.2f  p99 %.2f  (mean %.2f, n=%d)\n",
				f.RateMbps.P50, f.RateMbps.P95, f.RateMbps.P99, f.RateMbps.Mean, f.RateMbps.N)
		}
		if f.RTTMs.N > 0 {
			pf("  rtt ms:    p50 %.2f  p95 %.2f  p99 %.2f  (mean %.2f, n=%d)\n",
				f.RTTMs.P50, f.RTTMs.P95, f.RTTMs.P99, f.RTTMs.Mean, f.RTTMs.N)
		}
		if f.CycleMs.N > 0 {
			pf("  cycle ms:  p50 %.1f  p95 %.1f  p99 %.1f  (mean %.1f, n=%d)\n",
				f.CycleMs.P50, f.CycleMs.P95, f.CycleMs.P99, f.CycleMs.Mean, f.CycleMs.N)
		}
		if f.QueueBytes.N > 0 {
			pf("  queue B:   p50 %.0f  p95 %.0f  p99 %.0f  (at this flow's enqueues, n=%d)\n",
				f.QueueBytes.P50, f.QueueBytes.P95, f.QueueBytes.P99, f.QueueBytes.N)
		}
		pf("  traffic:   %d bytes sent, %d drops\n", f.SentBytes, f.Drops)
		if len(f.Anomalies) == 0 {
			pf("  anomalies: none\n")
		} else {
			pf("  anomalies:\n")
			for _, an := range f.Anomalies {
				pf("    - %s\n", an)
			}
		}
		pf("\n")
	}

	pf("link:\n")
	pf("  queue bytes:   p50 %.0f  p95 %.0f  p99 %.0f  (mean %.0f, n=%d)\n",
		r.Link.QueueBytes.P50, r.Link.QueueBytes.P95, r.Link.QueueBytes.P99,
		r.Link.QueueBytes.Mean, r.Link.QueueBytes.N)
	pf("  capacity Mbps: p50 %.2f  p95 %.2f  p99 %.2f  (mean %.2f)\n",
		r.Link.CapacityMbps.P50, r.Link.CapacityMbps.P95, r.Link.CapacityMbps.P99,
		r.Link.CapacityMbps.Mean)
	pf("  drops:        ")
	writeDrops(pf, r.Link.Drops)
	pf(" (%d bytes)\n", r.Link.DropBytes)
	if r.Link.FaultWindows > 0 || r.Link.FaultPackets > 0 {
		pf("  faults:        %d window events (%d blackouts), %d packet mutations\n",
			r.Link.FaultWindows, r.Link.Blackouts, r.Link.FaultPackets)
	}

	if len(r.Links) > 0 {
		pf("\nper-link attribution:\n")
		for _, l := range r.Links {
			pf("  %s: queue B p50 %.0f p95 %.0f  cap Mbps p50 %.2f  drops:",
				l.Label, l.QueueBytes.P50, l.QueueBytes.P95, l.CapacityMbps.P50)
			writeDrops(pf, l.Drops)
			pf(" (%d bytes)", l.DropBytes)
			if l.FaultWindows > 0 || l.FaultPackets > 0 {
				pf("  faults: %d windows, %d packet mutations", l.FaultWindows, l.FaultPackets)
			}
			pf("\n")
		}
	}

	if r.Fairness.Flows > 1 && r.Fairness.Windows > 0 {
		pf("\nfairness (%d flows, %.0f ms windows): Jain mean %.4f  min %.4f  p50 %.4f  (<0.9 in %d/%d windows)\n",
			r.Fairness.Flows, r.Fairness.WindowMs, r.Fairness.Mean,
			r.Fairness.Min, r.Fairness.P50, r.Fairness.Below90, r.Fairness.Windows)
	}

	if len(r.Profiles) > 0 {
		pf("\nprofiles:\n")
		for _, p := range r.Profiles {
			pf("  %-12s flows %v  mean thr %.2f Mbps", p.Profile, p.Flows, p.MeanThrMbps)
			if p.RTTMs.N > 0 {
				pf("  rtt ms p50 %.2f p95 %.2f", p.RTTMs.P50, p.RTTMs.P95)
			}
			pf("\n")
		}
		if r.ProfileFairness != nil && r.ProfileFairness.Profiles > 1 {
			pf("  cross-profile Jain (mean thr): %.4f over %d profiles\n",
				r.ProfileFairness.Jain, r.ProfileFairness.Profiles)
		}
	}
	if len(r.SLOs) > 0 {
		pf("\nSLO attainment:\n")
		for _, s := range r.SLOs {
			pf("  %-36s %5.1f%%  (%d/%d windows", s.Spec.String(), 100*s.Attainment, s.Met, s.Windows)
			if s.FirstViolationMs >= 0 {
				pf(", first violation at %.0f ms)", s.FirstViolationMs)
			} else {
				pf(", never violated)")
			}
			pf("\n")
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// writeDrops prints drop counts in reason order, or " none".
func writeDrops(pf func(string, ...any), drops map[string]int64) {
	reasons := make([]string, 0, len(drops))
	for reason := range drops {
		reasons = append(reasons, reason)
	}
	sort.Strings(reasons)
	if len(reasons) == 0 {
		pf(" none")
	}
	for _, reason := range reasons {
		pf(" %s %d", reason, drops[reason])
	}
}

// ExportMetrics mirrors the report's SLO attainment and cross-profile
// fairness into a metrics registry as libra_slo_* / libra_profile_*
// gauges, so Prometheus scrapes see the same numbers the report
// prints.
func (r *Report) ExportMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	for _, s := range r.SLOs {
		base := fmt.Sprintf("{profile=%q,metric=%q}", s.Spec.Profile, s.Spec.Metric)
		reg.Gauge("libra_slo_attainment"+base,
			"fraction of windows meeting the SLO").Set(s.Attainment)
		reg.Gauge("libra_slo_first_violation_ms"+base,
			"start of the earliest violating window (-1 = never)").Set(s.FirstViolationMs)
	}
	for _, p := range r.Profiles {
		reg.Gauge(fmt.Sprintf("libra_profile_mean_thr_mbps{profile=%q}", p.Profile),
			"per-flow mean throughput of the profile").Set(p.MeanThrMbps)
	}
	if r.ProfileFairness != nil {
		reg.Gauge("libra_profile_jain",
			"cross-profile Jain fairness over mean throughput").Set(r.ProfileFairness.Jain)
	}
}
