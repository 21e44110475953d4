package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"libra/internal/netem"
	"libra/internal/netem/faults"
	"libra/internal/sweep"
	"libra/internal/telemetry"
	"libra/internal/trace"
)

// TopoLink is one directed edge of a TopoSpec. CapMbps/DipFrac/PeriodS
// shape the capacity trace exactly like a lab Spec's bottleneck:
// capacity oscillates between CapMbps and CapMbps*DipFrac with the
// given period (DipFrac 1 or PeriodS 0 means constant rate).
type TopoLink struct {
	Label   string  `json:"label"`
	From    string  `json:"from"`
	To      string  `json:"to"`
	CapMbps float64 `json:"cap_mbps"`
	DipFrac float64 `json:"dip_frac,omitempty"`
	PeriodS float64 `json:"period_s,omitempty"`
	// DelayMs is the one-way propagation delay in milliseconds.
	DelayMs float64 `json:"delay_ms,omitempty"`
	// Buffer is the droptail queue limit in bytes (default 150 KB),
	// counting the packet in service.
	Buffer int `json:"buffer,omitempty"`
	// Loss is the iid stochastic drop probability at ingress.
	Loss float64 `json:"loss,omitempty"`
	// ECN, when positive, CE-marks packets enqueued over this many
	// queued bytes (the packet in service counts); CoDel enables the
	// AQM at dequeue.
	ECN   int  `json:"ecn,omitempty"`
	CoDel bool `json:"codel,omitempty"`
	// Faults composes adversarial dynamics onto this link only; each
	// link binds its own injector with a label-derived seed.
	Faults *faults.Plan `json:"faults,omitempty"`
}

// TopoRoute is an ordered walk over link labels, shared by any number
// of flows. AckDelayMs 0 means symmetric: the sum of the forward
// links' propagation delays.
type TopoRoute struct {
	Name       string   `json:"name"`
	Links      []string `json:"links"`
	AckDelayMs float64  `json:"ack_delay_ms,omitempty"`
}

// CrossFlow places competing traffic on a route of the topology.
type CrossFlow struct {
	Route string `json:"route"`
	// CCA names the controller (default cubic).
	CCA string `json:"cca,omitempty"`
	// Count is the number of identical flows (default 1).
	Count int `json:"count,omitempty"`
	// StartS delays the flows' start (seconds).
	StartS float64 `json:"start_s,omitempty"`
	// RateMbps, when positive, makes the flows application-limited at
	// that offered load instead of backlogged.
	RateMbps float64 `json:"rate_mbps,omitempty"`
}

// TopoSpec is a serializable multi-hop topology: nodes, links, routes,
// the main route the flows under test ride, and cross-traffic
// placement. It is the experiment-layer mirror of
// netem.TopologyConfig, loadable from presets or JSON files
// (libra-sim/-bench -topo).
type TopoSpec struct {
	Name   string      `json:"name,omitempty"`
	Nodes  []string    `json:"nodes"`
	Links  []TopoLink  `json:"links"`
	Routes []TopoRoute `json:"routes"`
	// Main names the route the controllers under test are placed on.
	Main  string      `json:"main"`
	Cross []CrossFlow `json:"cross,omitempty"`
}

// Validate reports whether Build can materialise the spec: it builds
// the spec with zero wiring and drops the result, so Build's spec
// checks and netem's graph rules are the only rules.
func (ts *TopoSpec) Validate() error {
	_, _, err := ts.Build(TopoBuild{})
	return err
}

// check rejects what netem cannot know: link labels (routes name links
// by them) and parameters, route names and ACK delays, an undeclared
// main route, and cross flows on unknown routes or with unknown
// controllers.
func (ts *TopoSpec) check() error {
	for i := range ts.Links {
		l := &ts.Links[i]
		if l.Label == "" {
			return fmt.Errorf("topo: link %d has no label", i)
		}
		if !(l.CapMbps > 0) {
			return fmt.Errorf("topo: link %q has zero capacity", l.Label)
		}
		if l.DipFrac != 0 && !(l.DipFrac > 0 && l.DipFrac <= 1) {
			return fmt.Errorf("topo: link %q dip_frac = %v outside (0,1]", l.Label, l.DipFrac)
		}
		if l.DelayMs < 0 || l.Loss < 0 || l.Loss >= 1 || l.Buffer < 0 || l.ECN < 0 || l.PeriodS < 0 {
			return fmt.Errorf("topo: link %q has a negative or out-of-range parameter", l.Label)
		}
	}
	routes := make(map[string]bool, len(ts.Routes))
	for _, r := range ts.Routes {
		if r.Name == "" {
			return fmt.Errorf("topo: route with no name")
		}
		if routes[r.Name] {
			return fmt.Errorf("topo: duplicate route %q", r.Name)
		}
		routes[r.Name] = true
		if r.AckDelayMs < 0 {
			return fmt.Errorf("topo: route %q has negative ack delay", r.Name)
		}
	}
	if !routes[ts.Main] {
		return fmt.Errorf("topo: main route %q not declared", ts.Main)
	}
	for i, cf := range ts.Cross {
		if !routes[cf.Route] {
			return fmt.Errorf("topo: cross flow %d rides unknown route %q", i, cf.Route)
		}
		if cf.Count < 0 || cf.StartS < 0 || cf.RateMbps < 0 {
			return fmt.Errorf("topo: cross flow %d has a negative parameter", i)
		}
		if cf.CCA != "" {
			if _, err := MakerFor(cf.CCA, nil, nil); err != nil {
				return fmt.Errorf("topo: cross flow %d: %w", i, err)
			}
		}
	}
	return nil
}

// Clone returns an independent deep copy, so callers (the lab's
// mutation search) can reshape links without aliasing the original.
func (ts *TopoSpec) Clone() *TopoSpec {
	if ts == nil {
		return nil
	}
	out := *ts
	out.Nodes = append([]string(nil), ts.Nodes...)
	out.Links = append([]TopoLink(nil), ts.Links...)
	for i := range out.Links {
		out.Links[i].Faults = ts.Links[i].Faults.Clone()
	}
	out.Routes = make([]TopoRoute, len(ts.Routes))
	for i, r := range ts.Routes {
		out.Routes[i] = r
		out.Routes[i].Links = append([]string(nil), r.Links...)
	}
	out.Cross = append([]CrossFlow(nil), ts.Cross...)
	return &out
}

// meanMbps is the link's time-averaged capacity implied by its shape.
func (l *TopoLink) meanMbps() float64 {
	if l.DipFrac == 0 || l.DipFrac >= 0.999 || l.PeriodS <= 0 {
		return l.CapMbps
	}
	return l.CapMbps * (1 + l.DipFrac) / 2
}

// Trace materialises the link's capacity shape: a square wave that
// spends half of each period at CapMbps and half at CapMbps*DipFrac,
// or a constant CapMbps when DipFrac is 0 or at least 0.999 or PeriodS
// is not positive.
func (l *TopoLink) Trace() trace.Trace {
	capBps := trace.Mbps(l.CapMbps)
	if l.DipFrac == 0 || l.DipFrac >= 0.999 || l.PeriodS <= 0 {
		return trace.Constant(capBps)
	}
	return &trace.Step{
		Period: time.Duration(l.PeriodS * float64(time.Second) / 2),
		Levels: []float64{capBps, capBps * l.DipFrac},
	}
}

// RouteByName returns the named route spec, or nil. The pointer
// aliases the spec; callers wanting to mutate should Clone first.
func (ts *TopoSpec) RouteByName(name string) *TopoRoute {
	for i := range ts.Routes {
		if ts.Routes[i].Name == name {
			return &ts.Routes[i]
		}
	}
	return nil
}

// LinkIndex returns the index (into Links) of the first link with the
// label, or -1.
func (ts *TopoSpec) LinkIndex(label string) int {
	for i := range ts.Links {
		if ts.Links[i].Label == label {
			return i
		}
	}
	return -1
}

// MainBottleneck returns the index (into Links) of the main route's
// lowest-mean-capacity hop — where scenario-level fault plans and the
// lab's trace-shape knobs land — or -1 when the spec is invalid.
func (ts *TopoSpec) MainBottleneck() int {
	r := ts.RouteByName(ts.Main)
	if r == nil {
		return -1
	}
	best, bi := 0.0, -1
	for _, lbl := range r.Links {
		if i := ts.LinkIndex(lbl); i >= 0 {
			if m := ts.Links[i].meanMbps(); bi < 0 || m < best {
				best, bi = m, i
			}
		}
	}
	return bi
}

// TopoBuild carries the runtime wiring Build needs beyond the spec.
type TopoBuild struct {
	Seed   int64
	Tracer telemetry.Tracer
	Health *telemetry.Health
	// SeriesBucket, when positive, records per-flow time series.
	SeriesBucket time.Duration
	// ExtraFaults, when non-empty, lands on the main route's bottleneck
	// hop — unless that link already carries its own plan. This is how
	// a scenario-level plan (libra-bench -fault) composes with -topo.
	ExtraFaults *faults.Plan
}

// Build materialises the spec as a running-ready topology plus its
// routes by name. It runs check, then leaves the graph rules (nodes,
// labels, endpoints, route walks) to netem.NewTopology and AddRoute and
// the fault-plan rules to faults.New. Per-link injectors bind with
// seeds sub-derived from the build seed by link index, so adding a link
// never perturbs the fault streams of the links before it.
func (ts *TopoSpec) Build(b TopoBuild) (*netem.Topology, map[string]*netem.Route, error) {
	if err := ts.check(); err != nil {
		return nil, nil, err
	}
	extraAt := -1
	if !b.ExtraFaults.Empty() {
		if i := ts.MainBottleneck(); i >= 0 && ts.Links[i].Faults.Empty() {
			extraAt = i
		}
	}
	specs := make([]netem.LinkSpec, len(ts.Links))
	for i := range ts.Links {
		l := &ts.Links[i]
		plan := l.Faults
		if i == extraAt {
			plan = b.ExtraFaults
		}
		var inj netem.FaultInjector
		if !plan.Empty() {
			var err error
			inj, err = faults.New(plan, sweep.SubSeed(b.Seed, i))
			if err != nil {
				return nil, nil, fmt.Errorf("topo: link %q: %w", l.Label, err)
			}
		}
		specs[i] = netem.LinkSpec{
			Label:        l.Label,
			From:         l.From,
			To:           l.To,
			Capacity:     l.Trace(),
			PropDelay:    time.Duration(l.DelayMs * float64(time.Millisecond)),
			BufferBytes:  l.Buffer,
			LossRate:     l.Loss,
			ECNThreshold: l.ECN,
			CoDel:        l.CoDel,
			Faults:       inj,
		}
	}
	tp, err := netem.NewTopology(netem.TopologyConfig{
		Nodes:        ts.Nodes,
		Links:        specs,
		Seed:         b.Seed,
		SeriesBucket: b.SeriesBucket,
		Tracer:       b.Tracer,
		Health:       b.Health,
	})
	if err != nil {
		return nil, nil, err
	}
	routes := make(map[string]*netem.Route, len(ts.Routes))
	for _, rs := range ts.Routes {
		ack := time.Duration(rs.AckDelayMs * float64(time.Millisecond))
		if rs.AckDelayMs == 0 {
			ack = -1 // symmetric
		}
		r, err := tp.AddRoute(rs.Name, rs.Links, ack)
		if err != nil {
			return nil, nil, err
		}
		routes[rs.Name] = r
	}
	return tp, routes, nil
}

// bottleneckTopo wraps one link as a two-node topology: the link runs
// src -> dst labelled "bn", and the main route crosses it with a
// symmetric ACK delay, so DelayMs is half the path's minimum RTT.
func bottleneckTopo(l TopoLink) *TopoSpec {
	l.Label, l.From, l.To = "bn", "src", "dst"
	return &TopoSpec{
		Name:   "bottleneck",
		Nodes:  []string{"src", "dst"},
		Links:  []TopoLink{l},
		Routes: []TopoRoute{{Name: "main", Links: []string{"bn"}}},
		Main:   "main",
	}
}

// topoPresets are the named topologies behind the -topo CLI flags and
// the lab's topology knob. Each returns a fresh spec.
var topoPresets = map[string]func() *TopoSpec{
	// Classic dumbbell: fat access links into one 48 Mbps bottleneck,
	// one CUBIC cross flow entering and leaving at the routers.
	"dumbbell": func() *TopoSpec {
		return &TopoSpec{
			Name:  "dumbbell",
			Nodes: []string{"src", "xsrc", "r0", "r1", "dst", "xdst"},
			Links: []TopoLink{
				{Label: "a0", From: "src", To: "r0", CapMbps: 960, DelayMs: 2},
				{Label: "a1", From: "xsrc", To: "r0", CapMbps: 960, DelayMs: 2},
				{Label: "bn", From: "r0", To: "r1", CapMbps: 48, DelayMs: 10},
				{Label: "b0", From: "r1", To: "dst", CapMbps: 960, DelayMs: 2},
				{Label: "b1", From: "r1", To: "xdst", CapMbps: 960, DelayMs: 2},
			},
			Routes: []TopoRoute{
				{Name: "main", Links: []string{"a0", "bn", "b0"}},
				{Name: "x", Links: []string{"a1", "bn", "b1"}},
			},
			Main:  "main",
			Cross: []CrossFlow{{Route: "x", CCA: "cubic", Count: 1}},
		}
	},
	// Parking lot: a 3-hop 48 Mbps path where the main flows cross
	// every hop and one-hop cross flows load each hop individually —
	// the canonical multi-bottleneck fairness fabric.
	"parking-lot": func() *TopoSpec {
		ts := &TopoSpec{
			Name:  "parking-lot",
			Nodes: []string{"n0", "n1", "n2", "n3"},
			Links: []TopoLink{
				{Label: "h0", From: "n0", To: "n1", CapMbps: 48, DelayMs: 5},
				{Label: "h1", From: "n1", To: "n2", CapMbps: 48, DelayMs: 5},
				{Label: "h2", From: "n2", To: "n3", CapMbps: 48, DelayMs: 5},
			},
			Routes: []TopoRoute{{Name: "main", Links: []string{"h0", "h1", "h2"}}},
			Main:   "main",
		}
		for k := 0; k < 3; k++ {
			in, out := fmt.Sprintf("c%d", k), fmt.Sprintf("d%d", k)
			ts.Nodes = append(ts.Nodes, in, out)
			ts.Links = append(ts.Links,
				TopoLink{Label: fmt.Sprintf("x%d_in", k), From: in, To: fmt.Sprintf("n%d", k), CapMbps: 960, DelayMs: 1},
				TopoLink{Label: fmt.Sprintf("x%d_out", k), From: fmt.Sprintf("n%d", k+1), To: out, CapMbps: 960, DelayMs: 1},
			)
			name := fmt.Sprintf("x%d", k)
			ts.Routes = append(ts.Routes, TopoRoute{Name: name,
				Links: []string{fmt.Sprintf("x%d_in", k), fmt.Sprintf("h%d", k), fmt.Sprintf("x%d_out", k)}})
			ts.Cross = append(ts.Cross, CrossFlow{Route: name, CCA: "cubic", Count: 1})
		}
		return ts
	},
	// Two-tier datacenter pod: shallow-buffered ECN fabric links with
	// DCTCP cross traffic sharing both fabric hops.
	"datacenter-ecn": func() *TopoSpec {
		return &TopoSpec{
			Name:  "datacenter-ecn",
			Nodes: []string{"h0", "c0", "t0", "a0", "t1", "h1", "c1"},
			Links: []TopoLink{
				{Label: "e0", From: "h0", To: "t0", CapMbps: 192, DelayMs: 0.05},
				{Label: "ce0", From: "c0", To: "t0", CapMbps: 192, DelayMs: 0.05},
				{Label: "f0", From: "t0", To: "a0", CapMbps: 96, DelayMs: 0.05, Buffer: 60_000, ECN: 30_000},
				{Label: "f1", From: "a0", To: "t1", CapMbps: 96, DelayMs: 0.05, Buffer: 60_000, ECN: 30_000},
				{Label: "e1", From: "t1", To: "h1", CapMbps: 192, DelayMs: 0.05},
				{Label: "ce1", From: "t1", To: "c1", CapMbps: 192, DelayMs: 0.05},
			},
			Routes: []TopoRoute{
				{Name: "main", Links: []string{"e0", "f0", "f1", "e1"}},
				{Name: "x", Links: []string{"ce0", "f0", "f1", "ce1"}},
			},
			Main:  "main",
			Cross: []CrossFlow{{Route: "x", CCA: "dctcp", Count: 2}},
		}
	},
}

// TopoPreset returns a fresh copy of a named topology.
func TopoPreset(name string) (*TopoSpec, bool) {
	f, ok := topoPresets[name]
	if !ok {
		return nil, false
	}
	return f(), true
}

// TopoPresetNames lists the registered topology presets, sorted.
func TopoPresetNames() []string {
	names := make([]string, 0, len(topoPresets))
	for n := range topoPresets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ParseTopo decodes a JSON topology spec, rejecting unknown fields,
// and validates it.
func ParseTopo(b []byte) (*TopoSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var ts TopoSpec
	if err := dec.Decode(&ts); err != nil {
		return nil, fmt.Errorf("topo: parse spec: %w", err)
	}
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	return &ts, nil
}

// LoadTopo resolves spec as either a preset name or a path to a JSON
// topology file (anything containing a path separator or ending in
// .json). Empty means no topology (the single-bottleneck path). This
// is the CLI entry point behind the -topo flags.
func LoadTopo(spec string) (*TopoSpec, error) {
	if spec == "" {
		return nil, nil
	}
	if ts, ok := TopoPreset(spec); ok {
		return ts, nil
	}
	if strings.ContainsAny(spec, "/\\") || strings.HasSuffix(spec, ".json") {
		b, err := os.ReadFile(spec)
		if err != nil {
			return nil, err
		}
		ts, err := ParseTopo(b)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec, err)
		}
		return ts, nil
	}
	return nil, fmt.Errorf("topo: unknown preset %q (have %s; or pass a .json topology file)",
		spec, strings.Join(TopoPresetNames(), ", "))
}
