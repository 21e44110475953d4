// Package lab is the adversarial scenario laboratory: a deterministic
// search over network conditions (trace shape, RTT, cross traffic, and
// the full faults.Plan knob space) that minimizes a target controller's
// Eq. 1 utility, plus a round-robin tournament that pits every CCA
// against every CCA's discovered worst cases and emits a robustness
// leaderboard. Everything routes through the sweep engine, so results
// are byte-identical at any worker count, and every discovered worst
// case serializes as a replayable JSON Spec.
package lab

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"libra/internal/exp"
	"libra/internal/netem/faults"
)

// Spec is one fully-determined lab scenario: everything Eval needs to
// reproduce a run bit-for-bit — the target controller, the evaluation
// seed, the bottleneck shape, cross traffic, and the exact fault plan.
// Discovered worst cases are written to disk in this form.
type Spec struct {
	// Target names the controller under test (exp.MakerFor names).
	Target string `json:"target"`
	// Label tags the spec in reports ("preset:blackout", "worst:bbr").
	Label string `json:"label,omitempty"`
	// Seed is the evaluation seed: netem, fault streams, and controller
	// RNG all derive from it, so one (Spec, binary) pair is one result.
	Seed int64 `json:"seed"`
	// CapMbps / DipFrac / PeriodS shape the bottleneck trace: capacity
	// oscillates between CapMbps and CapMbps*DipFrac with the given
	// period (DipFrac 1 or PeriodS 0 means a constant-rate link).
	CapMbps float64 `json:"cap_mbps"`
	DipFrac float64 `json:"dip_frac"`
	PeriodS float64 `json:"period_s"`
	// RTTMs is the two-way propagation delay in milliseconds.
	RTTMs float64 `json:"rtt_ms"`
	// Cross adds that many competing CUBIC flows on the bottleneck.
	Cross int `json:"cross"`
	// DurS is the simulated run length in seconds.
	DurS float64 `json:"dur_s"`
	// Plan is the exact fault plan (nil = clean link).
	Plan *faults.Plan `json:"plan,omitempty"`
	// Topo names a topology preset (exp.TopoPresetNames); empty runs
	// the classic single bottleneck. With a topology, CapMbps/DipFrac/
	// PeriodS reshape the main route's bottleneck hop, RTTMs rescales
	// every propagation delay so the main route's two-way delay matches,
	// and the fault plan lands on the bottleneck hop.
	Topo string `json:"topo,omitempty"`
	// CrossAt places the Cross flows on the topology: a fraction mapped
	// over the preset's route list (0 = first route, 1 = last). Only
	// meaningful with Topo set.
	CrossAt float64 `json:"cross_at,omitempty"`
}

// labKnobs is the scenario-shape half of the search space; the plan
// half is faults.PlanKnobs(). Combined vectors are lab knobs first.
var labKnobs = []faults.Knob{
	{Name: "cap_mbps", Min: 16, Max: 96},
	{Name: "dip_frac", Min: 0.1, Max: 1},
	{Name: "period_s", Min: 2, Max: 10},
	{Name: "rtt_ms", Min: 10, Max: 120},
	{Name: "cross", Min: 0, Max: 3},
	// topo selects the fabric: 0 is the single bottleneck, i >= 1 is
	// exp.TopoPresetNames()[i-1]. cross_at places the cross flows on
	// the chosen topology's route list.
	{Name: "topo", Min: 0, Max: float64(len(exp.TopoPresetNames()))},
	{Name: "cross_at", Min: 0, Max: 1},
}

// Knobs returns the combined search space — scenario knobs followed by
// the fault-plan knobs — as a fresh copy in fixed order.
func Knobs() []faults.Knob {
	return append(append([]faults.Knob(nil), labKnobs...), faults.PlanKnobs()...)
}

// DefaultSpec is the clean starting point: a steady 48 Mbps wired link
// with 30 ms RTT, no cross traffic, no faults.
func DefaultSpec(target string, seed int64, durS float64) Spec {
	return Spec{
		Target:  target,
		Label:   "baseline",
		Seed:    seed,
		CapMbps: 48,
		DipFrac: 1,
		PeriodS: 5,
		RTTMs:   30,
		DurS:    durS,
	}
}

// Validate rejects specs Eval could not run deterministically.
func (sp *Spec) Validate() error {
	if sp.Target == "" {
		return fmt.Errorf("lab: spec has no target CCA")
	}
	if _, err := exp.MakerFor(sp.Target, nil, nil); err != nil {
		return fmt.Errorf("lab: %w", err)
	}
	bad := func(name string, v float64) error {
		return fmt.Errorf("lab: spec %s = %v is not a positive finite number", name, v)
	}
	if !(sp.CapMbps > 0) || math.IsInf(sp.CapMbps, 0) {
		return bad("cap_mbps", sp.CapMbps)
	}
	if !(sp.DipFrac > 0 && sp.DipFrac <= 1) {
		return fmt.Errorf("lab: spec dip_frac = %v outside (0,1]", sp.DipFrac)
	}
	if sp.PeriodS < 0 || sp.DipFrac < 1 && !(sp.PeriodS > 0) {
		return bad("period_s", sp.PeriodS)
	}
	if !(sp.RTTMs > 0) || math.IsInf(sp.RTTMs, 0) {
		return bad("rtt_ms", sp.RTTMs)
	}
	if sp.Cross < 0 {
		return fmt.Errorf("lab: spec cross = %d is negative", sp.Cross)
	}
	if !(sp.DurS > 0) || math.IsInf(sp.DurS, 0) {
		return bad("dur_s", sp.DurS)
	}
	if sp.Topo != "" {
		if _, ok := exp.TopoPreset(sp.Topo); !ok {
			return fmt.Errorf("lab: spec topo %q is not a preset (have %v)", sp.Topo, exp.TopoPresetNames())
		}
	}
	if sp.CrossAt < 0 || sp.CrossAt > 1 || math.IsNaN(sp.CrossAt) {
		return fmt.Errorf("lab: spec cross_at = %v outside [0,1]", sp.CrossAt)
	}
	return sp.Plan.Validate()
}

// Name is the scenario label used in spans and reports.
func (sp Spec) Name() string {
	if sp.Label != "" {
		return sp.Label
	}
	return "lab:" + sp.Target
}

// Scenario materialises the spec as an experiment scenario. The
// single bottleneck takes its trace from the same TopoLink shape a
// topology's bottleneck hop gets in topoSpec.
func (sp Spec) Scenario() exp.Scenario {
	bn := exp.TopoLink{CapMbps: sp.CapMbps, DipFrac: sp.DipFrac, PeriodS: sp.PeriodS}
	return exp.Scenario{
		Name:     sp.Name(),
		Capacity: bn.Trace(),
		MinRTT:   time.Duration(sp.RTTMs * float64(time.Millisecond)),
		Buffer:   150_000,
		Duration: time.Duration(sp.DurS * float64(time.Second)),
		Faults:   sp.Plan,
		Topo:     sp.topoSpec(),
	}
}

// topoSpec materialises the topology half of the spec: the preset
// reshaped by the scenario knobs. The bottleneck hop takes the spec's
// trace shape, every propagation delay scales so the main route's
// two-way delay matches RTTMs, and the preset's cross traffic is
// replaced by the spec's own (Cross cubic flows on the CrossAt route).
// Nil when the spec runs the classic single bottleneck. The fault plan
// is NOT attached here — it flows through Scenario.Faults and lands on
// the bottleneck hop inside exp's topology builder.
func (sp Spec) topoSpec() *exp.TopoSpec {
	if sp.Topo == "" {
		return nil
	}
	ts, ok := exp.TopoPreset(sp.Topo)
	if !ok {
		return nil // Validate rejects this; defensive for raw specs
	}
	if bi := ts.MainBottleneck(); bi >= 0 {
		l := &ts.Links[bi]
		l.CapMbps, l.DipFrac, l.PeriodS = sp.CapMbps, sp.DipFrac, sp.PeriodS
	}
	// Scale delays so the main route's symmetric two-way propagation
	// matches the spec's RTT.
	if main := ts.RouteByName(ts.Main); main != nil {
		var oneWay float64
		for _, lbl := range main.Links {
			if i := ts.LinkIndex(lbl); i >= 0 {
				oneWay += ts.Links[i].DelayMs
			}
		}
		if oneWay > 0 {
			k := sp.RTTMs / (2 * oneWay)
			for i := range ts.Links {
				ts.Links[i].DelayMs *= k
			}
		}
	}
	ts.Cross = nil
	if sp.Cross > 0 && len(ts.Routes) > 0 {
		idx := int(math.Round(sp.CrossAt * float64(len(ts.Routes)-1)))
		ts.Cross = []exp.CrossFlow{{Route: ts.Routes[idx].Name, CCA: "cubic", Count: sp.Cross}}
	}
	return ts
}

// Vector projects the spec into the combined knob space (lab knobs,
// then plan knobs), clamped into the declared box.
func (sp Spec) Vector() []float64 {
	v := []float64{sp.CapMbps, sp.DipFrac, sp.PeriodS, sp.RTTMs, float64(sp.Cross),
		float64(topoIndex(sp.Topo)), sp.CrossAt}
	for i, k := range labKnobs {
		v[i] = k.Clamp(v[i])
	}
	return append(v, sp.Plan.Vector()...)
}

// topoIndex maps a preset name into the topo knob: 0 is the single
// bottleneck, i >= 1 is exp.TopoPresetNames()[i-1].
func topoIndex(name string) int {
	if name == "" {
		return 0
	}
	for i, n := range exp.TopoPresetNames() {
		if n == name {
			return i + 1
		}
	}
	return 0
}

// topoName inverts topoIndex.
func topoName(idx int) string {
	names := exp.TopoPresetNames()
	if idx < 1 || idx > len(names) {
		return ""
	}
	return names[idx-1]
}

// FromVector decodes a combined knob vector into a runnable spec,
// carrying over the identity fields (target, seed, duration, label)
// from the receiver. Decoded specs always validate: lab knobs clamp
// into their box, cross rounds to a whole flow count, and the plan
// decode gates sections exactly like faults.PlanFromVector.
func (sp Spec) FromVector(v []float64) Spec {
	at := func(i int) float64 {
		if i < len(v) {
			return labKnobs[i].Clamp(v[i])
		}
		return labKnobs[i].Clamp(0)
	}
	out := sp
	out.CapMbps = at(0)
	out.DipFrac = at(1)
	out.PeriodS = at(2)
	out.RTTMs = at(3)
	out.Cross = int(math.Round(at(4)))
	out.Topo = topoName(int(math.Round(at(5))))
	out.CrossAt = at(6)
	if len(v) > len(labKnobs) {
		out.Plan = faults.PlanFromVector(v[len(labKnobs):])
	} else {
		out.Plan = faults.PlanFromVector(nil)
	}
	if out.Plan.Empty() {
		out.Plan = nil
	}
	return out
}

// WriteFile serializes the spec as an indented, replayable artifact.
func (sp Spec) WriteFile(path string) error {
	b, err := json.MarshalIndent(sp, "", "  ")
	if err != nil {
		return fmt.Errorf("lab: marshal spec: %w", err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadSpecFile loads and validates a spec artifact.
func ReadSpecFile(path string) (Spec, error) {
	var sp Spec
	b, err := os.ReadFile(path)
	if err != nil {
		return sp, fmt.Errorf("lab: %w", err)
	}
	if err := json.Unmarshal(b, &sp); err != nil {
		return sp, fmt.Errorf("lab: parse spec %s: %w", path, err)
	}
	if err := sp.Validate(); err != nil {
		return sp, fmt.Errorf("%w (in %s)", err, path)
	}
	return sp, nil
}
