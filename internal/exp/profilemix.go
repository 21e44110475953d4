package exp

import (
	"fmt"
	"time"

	"libra/internal/analyze"
	"libra/internal/telemetry"
)

func init() {
	Register(Experiment{
		ID:    "profiles",
		Title: "Mixed utility profiles on the parking-lot topology: per-profile SLO attainment",
		Paper: "Sec. 2 preference diversity — one framework serving bulk, low-latency, video-call, and background flows at once, each meeting its own objective",
		Run:   runProfileMix,
	})
}

// runProfileMix drives one flow per preset profile over the shared
// parking-lot path and evaluates the per-profile SLOs with a live
// analyzer tap. A single mixed run (no sweep): the analyzer must see
// the interleaved event stream to window SLO attainment, so the tap
// rides the context's tracer via a copied context rather than the
// sweep machinery (whose job tracers must stay raw Buffers for
// deterministic replay).
func runProfileMix(rc *RunContext) *Report {
	rc.WithDefaults()
	dur := 30 * time.Second
	if rc.Quick {
		dur = 8 * time.Second
	}

	a := analyze.New(analyze.Config{})
	sub := *rc
	sub.Tracer = telemetry.Multi(rc.Tracer, a)

	profiles := []string{"bulk", "low-latency", "video-call", "background"}
	mks := make([]Maker, len(profiles))
	for i, name := range profiles {
		p, err := ProfileByName(name)
		if err != nil {
			panic(err) // static names
		}
		mks[i] = CCAMaker(p.CCA, p.Util)(&sub)
	}

	ts, _ := TopoPreset("parking-lot")
	s := Scenario{Name: "profile-mix", Duration: dur, Topo: ts, Profiles: profiles}
	ms := sub.RunFlows(s, mks, nil, time.Second)
	a.Finalize()
	ar := a.Report()
	ar.ExportMetrics(rc.Metrics)

	rep := &Report{ID: "profiles", Title: "Per-profile SLO attainment (parking-lot, one flow per profile)"}
	tb := Table{
		Name: fmt.Sprintf("profile mix over %s", dur),
		Cols: []string{"profile", "cca", "thr Mbps", "rtt p95 ms", "utility", "SLO", "attainment", "first viol"},
	}
	// Index the analyzer's per-profile and SLO views by profile name.
	slos := map[string]analyze.SLOReport{}
	for _, sr := range ar.SLOs {
		slos[sr.Spec.Profile] = sr
	}
	prs := map[string]analyze.ProfileReport{}
	for _, pr := range ar.Profiles {
		prs[pr.Profile] = pr
	}
	for i, name := range profiles {
		thr, util := 0.0, 0.0
		cca := "?"
		if i < len(ms) && !ms[i].Failed {
			thr = ms[i].ThrMbps
			cca = ms[i].Ctrl.Name()
		}
		for _, fr := range ar.Flows {
			if fr.ID == i {
				util = fr.Decomp.MeanUtility
				break
			}
		}
		p95 := prs[name].RTTMs.P95
		spec, att, first := "-", "-", "-"
		if sr, ok := slos[name]; ok {
			spec = sr.Spec.String()
			att = fmtF(100*sr.Attainment, 1) + "%"
			if sr.FirstViolationMs >= 0 {
				first = fmtF(sr.FirstViolationMs/1000, 1) + "s"
			} else {
				first = "never"
			}
		}
		tb.AddRow(name, cca, fmtF(thr, 2), fmtF(p95, 1), fmtF(util, 3), spec, att, first)
	}
	rep.Tables = append(rep.Tables, tb)
	if ar.ProfileFairness != nil {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"cross-profile Jain fairness over mean throughput: %.4f (%d profiles); flow-level Jain mean %.4f",
			ar.ProfileFairness.Jain, ar.ProfileFairness.Profiles, ar.Fairness.Mean))
	}
	rep.Notes = append(rep.Notes,
		"attainment = fraction of 1 s windows meeting the profile's SLO (see analyze.DefaultSLOs)")
	return rep
}
