package analyze

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"libra/internal/stats"
)

// SLO metrics the evaluator understands. RTT metrics accumulate on the
// feed path (per-spec windowed counters, mergeable additively);
// throughput metrics evaluate at report time from the fairness
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
func ParseSLO(spec string) (SLOSpec, error) {
	fail := func() (SLOSpec, error) {
		return SLOSpec{}, fmt.Errorf(
			"analyze: bad SLO %q (want profile:metric<=X or profile:metric>=X; metrics: %s, %s, %s, %s)",
			spec, SLOP95RTTMs, SLOP99RTTMs, SLOMeanRTTMs, SLOMeanThrMbps)
	}
	i := strings.Index(spec, ":")
	if i <= 0 {
		return fail()
	}
	out := SLOSpec{Profile: strings.TrimSpace(spec[:i])}
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
	if err != nil {
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

// ProfileReport aggregates the flows bound to one utility profile.
type ProfileReport struct {
	Profile     string    `json:"profile"`
	Flows       []int     `json:"flows"`
	MeanThrMbps float64   `json:"mean_thr_mbps"` // per-flow mean over the whole trace
	RTTMs       Quantiles `json:"rtt_ms"`
}

// SLOReport is one spec's windowed attainment.
type SLOReport struct {
	Spec       SLOSpec `json:"spec"`
	Windows    int     `json:"windows"`
	Met        int     `json:"met"`
	Attainment float64 `json:"attainment"` // met / windows
	// FirstViolationMs is the start of the earliest violating window,
	// -1 when the objective held everywhere.
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

// profileReports summarises every profile seen in the stream, plus the
// cross-profile fairness index. Callers hold a.mu.
func (a *Analyzer) profileReports() ([]ProfileReport, *ProfileFairness) {
	names, members := a.profileIDs()
	if len(names) == 0 {
		return nil, nil
	}
	spanSec := float64(a.det.lastT) / 1e9
	out := make([]ProfileReport, 0, len(names))
	thrs := make([]float64, 0, len(names))
	for _, p := range names {
		pr := ProfileReport{Profile: p, Flows: members[p]}
		rtt := stats.NewSketch(0)
		var bytes int64
		for _, id := range members[p] {
			fs := a.flows[id]
			rtt.Merge(fs.rttMs)
			bytes += fs.sentBytes
		}
		pr.RTTMs = QuantilesOf(rtt)
		if spanSec > 0 && len(members[p]) > 0 {
			pr.MeanThrMbps = float64(bytes) * 8 / 1e6 / spanSec / float64(len(members[p]))
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

// pooledWindows returns every run's fairness windows pooled by window
// index, the view the throughput SLOs are evaluated on. Callers hold
// a.mu.
func (a *Analyzer) pooledWindows() map[int64]*window {
	if len(a.past) == 0 {
		return a.wins
	}
	all := make(map[int64]*window, len(a.past))
	addWindows(all, a.past)
	addWindows(all, a.wins)
	return all
}

// sloReports evaluates every configured spec whose profile appears in
// the stream, in config order. Callers hold a.mu.
func (a *Analyzer) sloReports() []SLOReport {
	_, members := a.profileIDs()
	if len(members) == 0 {
		return nil
	}
	winSec := float64(a.cfg.Window) / 1e9
	winMs := float64(a.cfg.Window) / 1e6
	var out []SLOReport
	for si, spec := range a.cfg.SLOs {
		ids := members[spec.Profile]
		if len(ids) == 0 {
			continue
		}
		sr := SLOReport{Spec: spec, FirstViolationMs: -1}
		if spec.rttBased() {
			idxs := make([]int64, 0, len(a.slo[si]))
			for idx := range a.slo[si] {
				idxs = append(idxs, idx)
			}
			sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
			for _, idx := range idxs {
				w := a.slo[si][idx]
				if w.n == 0 {
					continue
				}
				sr.Windows++
				if spec.violated(w) {
					if sr.FirstViolationMs < 0 {
						sr.FirstViolationMs = float64(idx) * winMs
					}
				} else {
					sr.Met++
				}
			}
		} else {
			// Throughput objective: per window, the profile's per-flow
			// mean enqueue rate must clear the floor. Windows with no
			// traffic anywhere are dead air (post-run tail), not
			// violations; windows where others sent and this profile
			// didn't count against it.
			wins := a.pooledWindows()
			idxs := make([]int64, 0, len(wins))
			for idx := range wins {
				idxs = append(idxs, idx)
			}
			sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
			for _, idx := range idxs {
				w := wins[idx]
				var total, mine int64
				for f, n := range w.bytes {
					total += n
					for _, id := range ids {
						if f == id {
							mine += n
							break
						}
					}
				}
				if total == 0 {
					continue
				}
				sr.Windows++
				thr := float64(mine) * 8 / 1e6 / winSec / float64(len(ids))
				if thr < spec.Threshold {
					if sr.FirstViolationMs < 0 {
						sr.FirstViolationMs = float64(idx) * winMs
					}
				} else {
					sr.Met++
				}
			}
		}
		if sr.Windows > 0 {
			sr.Attainment = float64(sr.Met) / float64(sr.Windows)
		}
		out = append(out, sr)
	}
	return out
}
