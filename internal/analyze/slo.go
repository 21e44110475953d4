package analyze

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"libra/internal/stats"
)

// SLO metrics the evaluator understands. RTT metrics accumulate on the
// feed path (per-spec windowed counters, mergeable additively);
// throughput metrics evaluate at each run's end from its fairness
// windows' per-flow byte counts.
const (
	SLOP95RTTMs    = "p95_rtt_ms"
	SLOP99RTTMs    = "p99_rtt_ms"
	SLOMeanRTTMs   = "mean_rtt_ms"
	SLOMeanThrMbps = "mean_thr_mbps"
)

// SLOSpec is one declarative per-profile service-level objective,
// evaluated per fairness window: "did profile P keep metric M within
// threshold X in this window?". Attainment is the fraction of
// evaluated windows that met the objective.
type SLOSpec struct {
	// Profile names the utility profile the objective applies to
	// (flows bound via TypeProfile events).
	Profile string `json:"profile"`
	// Metric is one of the SLO* metric constants.
	Metric string `json:"metric"`
	// Op is "<=" (RTT metrics) or ">=" (throughput metrics).
	Op string `json:"op"`
	// Threshold is in the metric's unit (ms or Mbit/s).
	Threshold float64 `json:"threshold"`
}

// String renders the spec in the parseable form
// "profile:metric<=threshold".
func (s SLOSpec) String() string {
	return fmt.Sprintf("%s:%s%s%g", s.Profile, s.Metric, s.Op, s.Threshold)
}

// rttBased reports whether the spec accumulates RTT samples on the
// feed path.
func (s SLOSpec) rttBased() bool {
	switch s.Metric {
	case SLOP95RTTMs, SLOP99RTTMs, SLOMeanRTTMs:
		return true
	}
	return false
}

// ParseSLO parses "profile:metric<=threshold" / "profile:metric>=threshold".
// The profile must be non-blank and the threshold finite, so that String
// prints a form that parses back to the same spec.
func ParseSLO(spec string) (SLOSpec, error) {
	fail := func() (SLOSpec, error) {
		return SLOSpec{}, fmt.Errorf(
			"analyze: bad SLO %q (want profile:metric<=X or profile:metric>=X; metrics: %s, %s, %s, %s)",
			spec, SLOP95RTTMs, SLOP99RTTMs, SLOMeanRTTMs, SLOMeanThrMbps)
	}
	i := strings.Index(spec, ":")
	out := SLOSpec{Profile: strings.TrimSpace(spec[:max(i, 0)])}
	if out.Profile == "" {
		return fail()
	}
	rest := spec[i+1:]
	op := "<="
	j := strings.Index(rest, "<=")
	if j < 0 {
		op = ">="
		j = strings.Index(rest, ">=")
	}
	if j <= 0 {
		return fail()
	}
	out.Metric = strings.TrimSpace(rest[:j])
	out.Op = op
	v, err := strconv.ParseFloat(strings.TrimSpace(rest[j+2:]), 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return fail()
	}
	out.Threshold = v
	switch out.Metric {
	case SLOP95RTTMs, SLOP99RTTMs, SLOMeanRTTMs:
		if op != "<=" {
			return fail()
		}
	case SLOMeanThrMbps:
		if op != ">=" {
			return fail()
		}
	default:
		return fail()
	}
	return out, nil
}

// ParseSLOs parses a comma-separated SLO list ("" = nil).
func ParseSLOs(specs string) ([]SLOSpec, error) {
	if strings.TrimSpace(specs) == "" {
		return nil, nil
	}
	var out []SLOSpec
	for _, s := range strings.Split(specs, ",") {
		spec, err := ParseSLO(strings.TrimSpace(s))
		if err != nil {
			return nil, err
		}
		out = append(out, spec)
	}
	return out, nil
}

// DefaultSLOs are the paper-story objectives for the preset profiles:
// latency-sensitive profiles bound tail RTT, throughput-seeking
// profiles floor their mean rate.
func DefaultSLOs() []SLOSpec {
	return []SLOSpec{
		{Profile: "low-latency", Metric: SLOP95RTTMs, Op: "<=", Threshold: 100},
		{Profile: "video-call", Metric: SLOP95RTTMs, Op: "<=", Threshold: 150},
		{Profile: "bulk", Metric: SLOMeanThrMbps, Op: ">=", Threshold: 5},
		{Profile: "background", Metric: SLOMeanThrMbps, Op: ">=", Threshold: 0.5},
	}
}

// sloWin is one spec's accumulator for one fairness window: n RTT
// samples, how many exceeded the spec threshold, and their sum. All
// three merge additively, so windowed attainment is deterministic
// under sharded analysis.
type sloWin struct {
	n    int64
	over int64
	sum  float64
}

// feedSLORtt folds one RTT sample (ms, at trace time t) into every
// RTT-based spec bound to the flow's profile. Callers hold a.mu. Flows
// without a profile carry an empty spec list, so the common path adds
// nothing.
func (a *Analyzer) feedSLORtt(fs *flowState, t int64, ms float64) {
	for _, si := range fs.rttSpecs {
		idx := t / int64(a.cfg.Window)
		w, ok := a.slo[si][idx]
		if !ok {
			w = &sloWin{}
			a.slo[si][idx] = w
		}
		w.n++
		w.sum += ms
		if ms > a.cfg.SLOs[si].Threshold {
			w.over++
		}
	}
}

// bindProfile attaches a flow to a profile label and precomputes which
// RTT-based specs apply to it. Callers hold a.mu.
func (a *Analyzer) bindProfile(fs *flowState, profile string) {
	if profile == "" || fs.profile == profile {
		return
	}
	fs.profile = profile
	fs.rttSpecs = fs.rttSpecs[:0]
	for si, spec := range a.cfg.SLOs {
		if spec.rttBased() && spec.Profile == profile {
			fs.rttSpecs = append(fs.rttSpecs, si)
		}
	}
}

// violated reports whether one accumulated window breaks the spec.
// The tail checks are exceedance-fraction tests: a window meets
// "p95 <= X" iff at most 5% of its samples exceeded X — additive under
// merge, unlike a true windowed quantile.
func (s SLOSpec) violated(w *sloWin) bool {
	if w.n == 0 {
		return false
	}
	switch s.Metric {
	case SLOP95RTTMs:
		return float64(w.over) > 0.05*float64(w.n)
	case SLOP99RTTMs:
		return float64(w.over) > 0.01*float64(w.n)
	case SLOMeanRTTMs:
		return w.sum/float64(w.n) > s.Threshold
	}
	return false
}

// thrTally sums one profile's per-run, per-flow mean throughputs
// (Mbit/s) over the runs that added one.
type thrTally struct {
	sum  float64
	runs int
}

// tallies is what closed runs leave behind: every fairness window's
// Jain value in order, each SLO spec's evaluated and met windows and
// first violation (config order; +Inf while none, Attainment unset) and
// each profile's throughput.
type tallies struct {
	jains []float64
	slo   []SLOReport
	thr   map[string]thrTally
}

func newTallies(specs []SLOSpec) tallies {
	t := tallies{slo: make([]SLOReport, len(specs)), thr: make(map[string]thrTally)}
	for i, spec := range specs {
		t.slo[i] = SLOReport{Spec: spec, FirstViolationMs: math.Inf(1)}
	}
	return t
}

// clone returns an independent copy, which a report closes the open
// run into.
func (t *tallies) clone() tallies {
	return tallies{jains: slices.Clone(t.jains), slo: slices.Clone(t.slo), thr: maps.Clone(t.thr)}
}

// merge adds o's tallies into t, appending o's Jain values after t's.
// Specs pair up by config index; o's extra specs are dropped.
func (t *tallies) merge(o *tallies) {
	t.jains = append(t.jains, o.jains...)
	for i := range min(len(t.slo), len(o.slo)) {
		t.slo[i].Windows += o.slo[i].Windows
		t.slo[i].Met += o.slo[i].Met
		t.slo[i].FirstViolationMs = min(t.slo[i].FirstViolationMs, o.slo[i].FirstViolationMs)
	}
	for p, ot := range o.thr {
		t.thr[p] = thrTally{t.thr[p].sum + ot.sum, t.thr[p].runs + ot.runs}
	}
}

// evaluated counts one window of winMs, starting idx windows into its
// run.
func (r *SLOReport) evaluated(idx int64, winMs float64, met bool) {
	r.Windows++
	if met {
		r.Met++
	} else {
		r.FirstViolationMs = min(r.FirstViolationMs, float64(idx)*winMs)
	}
}

// closeRun is the one run-end step: it folds the open run into t, and
// leaves it as it is for a report to close into a copy. The fairness
// windows become Jain values. An RTT spec tallies its own windows; a
// throughput spec the fairness windows anybody sent in, where the
// per-flow mean send rate of the flows the run bound to its profile must
// clear the floor. Each profile bound in the run gets the bytes its
// flows sent over the run's length (its latest event time: the scenario
// span end, once closed), per flow, unless no flow sent at all. Callers
// hold a.mu.
func (a *Analyzer) closeRun(t *tallies) {
	t.jains = appendJains(t.jains, a.wins)
	flows := make(map[string]int, len(a.runProf))
	for _, p := range a.runProf {
		flows[p]++
	}
	winSec, winMs := float64(a.cfg.Window)/1e9, float64(a.cfg.Window)/1e6
	for si, spec := range a.cfg.SLOs {
		if spec.rttBased() {
			for idx, w := range a.slo[si] {
				t.slo[si].evaluated(idx, winMs, !spec.violated(w))
			}
			continue
		}
		if flows[spec.Profile] == 0 {
			continue
		}
		for idx, w := range a.wins {
			var total, mine int64
			for f, n := range w.bytes {
				total += n
				if a.runProf[f] == spec.Profile {
					mine += n
				}
			}
			if total > 0 {
				thr := float64(mine) * 8 / 1e6 / winSec / float64(flows[spec.Profile])
				t.slo[si].evaluated(idx, winMs, thr >= spec.Threshold)
			}
		}
	}

	sent := make(map[string]int64, len(flows))
	var total int64
	for _, w := range a.wins {
		for f, n := range w.bytes {
			total += n
			sent[a.runProf[f]] += n
		}
	}
	if total == 0 || a.runT <= 0 {
		return
	}
	for p, n := range flows {
		thr := float64(sent[p]) * 8 / 1e6 / (float64(a.runT) / 1e9) / float64(n)
		t.thr[p] = thrTally{t.thr[p].sum + thr, t.thr[p].runs + 1}
	}
}

// ProfileReport aggregates the flows bound to one utility profile.
type ProfileReport struct {
	Profile string `json:"profile"`
	Flows   []int  `json:"flows"`
	// MeanThrMbps is the per-flow mean throughput of each run the
	// profile took part in, averaged over those runs.
	MeanThrMbps float64   `json:"mean_thr_mbps"`
	RTTMs       Quantiles `json:"rtt_ms"`
}

// SLOReport is one spec's windowed attainment over every run.
type SLOReport struct {
	Spec       SLOSpec `json:"spec"`
	Windows    int     `json:"windows"`
	Met        int     `json:"met"`
	Attainment float64 `json:"attainment"` // met / windows
	// FirstViolationMs is the run-relative start of the earliest
	// violating window, -1 when the objective held everywhere.
	FirstViolationMs float64 `json:"first_violation_ms"`
}

// ProfileFairness is the cross-profile Jain index over per-profile
// mean throughput — the "does one preference starve another?" number.
type ProfileFairness struct {
	Profiles int     `json:"profiles"`
	Jain     float64 `json:"jain"`
}

// profileIDs groups flow IDs by profile, profiles sorted by name.
// Callers hold a.mu.
func (a *Analyzer) profileIDs() (names []string, members map[string][]int) {
	members = make(map[string][]int)
	ids := make([]int, 0, len(a.flows))
	for id := range a.flows {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if p := a.flows[id].profile; p != "" {
			members[p] = append(members[p], id)
		}
	}
	for p := range members {
		names = append(names, p)
	}
	sort.Strings(names)
	return names, members
}

// profileReports summarises every profile seen in the stream, with its
// throughput from thr, plus the cross-profile fairness index. Callers
// hold a.mu.
func (a *Analyzer) profileReports(thr map[string]thrTally) ([]ProfileReport, *ProfileFairness) {
	names, members := a.profileIDs()
	if len(names) == 0 {
		return nil, nil
	}
	out := make([]ProfileReport, 0, len(names))
	thrs := make([]float64, 0, len(names))
	for _, p := range names {
		pr := ProfileReport{Profile: p, Flows: members[p]}
		rtt := stats.NewSketch(0)
		for _, id := range members[p] {
			rtt.Merge(a.flows[id].rttMs)
		}
		pr.RTTMs = QuantilesOf(rtt)
		if t := thr[p]; t.runs > 0 {
			pr.MeanThrMbps = t.sum / float64(t.runs)
		}
		thrs = append(thrs, pr.MeanThrMbps)
		out = append(out, pr)
	}
	pf := &ProfileFairness{Profiles: len(names)}
	if len(thrs) > 1 {
		pf.Jain = stats.JainIndex(thrs)
	} else {
		pf.Jain = 1
	}
	return out, pf
}

// sloReports reports every configured spec whose profile appears in the
// stream, in config order, from its tally. Callers hold a.mu.
func (a *Analyzer) sloReports(tally []SLOReport) []SLOReport {
	_, members := a.profileIDs()
	var out []SLOReport
	for _, sr := range tally {
		if len(members[sr.Spec.Profile]) == 0 {
			continue
		}
		if sr.Windows > 0 {
			sr.Attainment = float64(sr.Met) / float64(sr.Windows)
		}
		if math.IsInf(sr.FirstViolationMs, 1) {
			sr.FirstViolationMs = -1
		}
		out = append(out, sr)
	}
	return out
}
