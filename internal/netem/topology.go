package netem

import (
	"fmt"
	"time"

	"libra/internal/cc"
	"libra/internal/sim"
	"libra/internal/telemetry"
	"libra/internal/trace"
)

// LinkSpec describes one directed link of a topology.
type LinkSpec struct {
	// Label is the link's telemetry identity: enqueue/drop/queue events
	// it emits carry this label, and per-link metrics/reports key on it.
	// NewTopology requires labels to be non-empty and unique; only the
	// degenerate single-bottleneck Network leaves its one link
	// unlabelled, which keeps its event stream byte-identical to the
	// pre-topology encoding.
	Label string
	// From and To name the link's endpoints; both must appear in
	// TopologyConfig.Nodes.
	From, To string
	// Capacity is the link's (possibly time-varying) rate trace.
	Capacity trace.Trace
	// PropDelay is the one-way propagation delay applied after
	// serialization.
	PropDelay time.Duration
	// BufferBytes is the droptail queue limit (default 150 KB). It
	// counts the packet in service, which holds its bytes until its
	// serialisation ends.
	BufferBytes int
	// LossRate is the iid stochastic loss probability at ingress.
	LossRate float64
	// ECNThreshold, when positive, CE-marks packets enqueued while the
	// queue, counting the packet in service, exceeds this many bytes.
	ECNThreshold int
	// CoDel enables Controlled-Delay AQM at this link's dequeue.
	CoDel bool
	// Faults, when non-nil, composes adversarial dynamics onto this
	// link only; each link owns its injector.
	Faults FaultInjector
}

// TopologyConfig parameterises a Topology.
type TopologyConfig struct {
	// Nodes lists the node names; link endpoints must come from here.
	Nodes []string
	// Links are the directed edges, in construction order. Per-link
	// stochastic streams sub-derive from Seed by link index, so adding a
	// link never perturbs the streams of the links before it.
	Links []LinkSpec
	// Seed drives all stochastic behaviour.
	Seed int64
	// SeriesBucket, when positive, records per-flow throughput/delay
	// time series with this bucket width.
	SeriesBucket time.Duration
	// Tracer receives per-link telemetry: enqueue/drop events and queue
	// occupancy every 100 ms, each labelled with the link.
	Tracer telemetry.Tracer
	// Health, when set, has the topology's engine registered for
	// runtime health sampling for the lifetime of Run.
	Health *telemetry.Health
}

// Route is an ordered list of links a flow's packets traverse, plus the
// ACK return delay. Routes are built by AddRoute and shared by any
// number of flows.
type Route struct {
	name     string
	links    []*Link
	ackDelay time.Duration
	ack      *sim.Line // ACK return path, shared by the route's flows
}

// Name returns the route's identifier.
func (r *Route) Name() string { return r.name }

// Links returns the route's links in traversal order. Callers must not
// mutate the returned slice.
func (r *Route) Links() []*Link { return r.links }

// AckDelay returns the ACK return-path delay.
func (r *Route) AckDelay() time.Duration { return r.ackDelay }

// Topology is a graph of named nodes joined by directed links, with
// per-flow routes threading packets across multiple hops. It owns the
// event engine, the packet pool, and the per-link queue sampler; the
// single-bottleneck Network is a two-node/one-link degenerate case.
type Topology struct {
	Eng   *sim.Engine
	tcfg  TopologyConfig
	links []*Link
	byLbl map[string]int
	nodes map[string]bool

	routes []*Route
	flows  []*Flow
	pool   packetPool

	qEvBuf telemetry.Event // reused queue-sample event buffer

	// sampleTracer receives the queue samples; the sampler re-arms
	// itself through the engine's pooled callback path.
	sampleTracer telemetry.Tracer
}

// queueSampleEvery is the spacing of queue-occupancy samples.
const queueSampleEvery = 100 * time.Millisecond

// linkSeedStride separates per-link stochastic streams; link 0 keeps
// the topology seed itself so the degenerate single-link case draws
// exactly the pre-topology sequence.
const linkSeedStride = 0x61c88647

// NewTopology builds a multi-hop topology. Labels are mandatory and
// unique, endpoints must be declared nodes, and every link needs a
// capacity trace.
func NewTopology(cfg TopologyConfig) (*Topology, error) {
	for i, l := range cfg.Links {
		if l.Label == "" {
			return nil, fmt.Errorf("netem: link %d has no label", i)
		}
		if l.Capacity == nil {
			return nil, fmt.Errorf("netem: link %q has no capacity trace", l.Label)
		}
	}
	return newTopology(cfg)
}

// newTopology is the shared constructor; the Network wrapper reaches it
// directly so its single link may stay unlabelled.
func newTopology(cfg TopologyConfig) (*Topology, error) {
	if len(cfg.Links) == 0 {
		return nil, fmt.Errorf("netem: topology has no links")
	}
	tp := &Topology{
		Eng:   sim.New(),
		tcfg:  cfg,
		byLbl: make(map[string]int, len(cfg.Links)),
		nodes: make(map[string]bool, len(cfg.Nodes)),
	}
	for _, n := range cfg.Nodes {
		if n == "" {
			return nil, fmt.Errorf("netem: empty node name")
		}
		if tp.nodes[n] {
			return nil, fmt.Errorf("netem: duplicate node %q", n)
		}
		tp.nodes[n] = true
	}
	tracer := cfg.Tracer
	traceOn := telemetry.Enabled(tracer)
	for i, ls := range cfg.Links {
		if !tp.nodes[ls.From] || !tp.nodes[ls.To] {
			return nil, fmt.Errorf("netem: link %q joins unknown node (%s -> %s)", ls.Label, ls.From, ls.To)
		}
		if ls.From == ls.To {
			return nil, fmt.Errorf("netem: link %q is a self-loop at %s", ls.Label, ls.From)
		}
		if ls.Label != "" {
			if _, dup := tp.byLbl[ls.Label]; dup {
				return nil, fmt.Errorf("netem: duplicate link label %q", ls.Label)
			}
		}
		if ls.Faults != nil {
			t := tracer
			if !telemetry.Enabled(t) {
				t = telemetry.Nop{}
			} else if ls.Label != "" {
				t = linkTracer{t: t, label: ls.Label}
			}
			ls.Faults.Bind(tp.Eng, t)
		}
		l := newLink(tp.Eng, ls, cfg.Seed+int64(i)*linkSeedStride, tp.forward, tp.dropped, tp.clonePacket)
		if traceOn {
			l.SetTracer(tracer)
		}
		tp.byLbl[ls.Label] = i
		tp.links = append(tp.links, l)
	}
	if traceOn {
		tp.sampleTracer = tracer
		tp.sampleQueues()
	}
	return tp, nil
}

// Links returns the topology's links in construction order. Callers
// must not mutate the returned slice.
func (tp *Topology) Links() []*Link { return tp.links }

// LinkByLabel returns the labelled link, or nil when unknown.
func (tp *Topology) LinkByLabel(label string) *Link {
	if i, ok := tp.byLbl[label]; ok {
		return tp.links[i]
	}
	return nil
}

// Routes returns the routes in creation order.
func (tp *Topology) Routes() []*Route { return tp.routes }

// AddRoute threads a named route through the labelled links, in order.
// Consecutive links must connect head to tail, and a route may not
// revisit a link (that would be a forwarding loop). ackDelay is the ACK
// return-path delay; negative means symmetric (the sum of the forward
// links' propagation delays).
func (tp *Topology) AddRoute(name string, via []string, ackDelay time.Duration) (*Route, error) {
	if len(via) == 0 {
		return nil, fmt.Errorf("netem: route %q has no links", name)
	}
	r := &Route{name: name, links: make([]*Link, 0, len(via))}
	seen := make(map[string]bool, len(via))
	var prev *LinkSpec
	var symmetric time.Duration
	for _, lbl := range via {
		i, ok := tp.byLbl[lbl]
		if !ok {
			return nil, fmt.Errorf("netem: route %q uses unknown link %q", name, lbl)
		}
		if seen[lbl] {
			return nil, fmt.Errorf("netem: route %q revisits link %q (forwarding loop)", name, lbl)
		}
		seen[lbl] = true
		spec := &tp.tcfg.Links[i]
		if prev != nil && prev.To != spec.From {
			return nil, fmt.Errorf("netem: route %q breaks at %q -> %q (%s does not feed %s)",
				name, prev.Label, spec.Label, prev.To, spec.From)
		}
		prev = spec
		symmetric += spec.PropDelay
		r.links = append(r.links, tp.links[i])
	}
	if ackDelay < 0 {
		ackDelay = symmetric
	}
	r.ackDelay = ackDelay
	r.ack = tp.Eng.NewLine(ackDelay, ackCb)
	tp.routes = append(tp.routes, r)
	return r, nil
}

// forward advances a packet that finished one link: onto the next hop
// of its route, or into delivery at the receiver after the last one.
func (tp *Topology) forward(p *Packet) {
	r := p.Flow.route
	p.hop++
	if int(p.hop) < len(r.links) {
		r.links[p.hop].Enqueue(p)
		return
	}
	p.Flow.onDelivered(p)
}

func (tp *Topology) dropped(p *Packet, _ bool) {
	tp.pool.put(p)
}

// clonePacket duplicates a packet for fault-injected duplication; the
// copy is marked injected so it bypasses every injector on the route.
func (tp *Topology) clonePacket(p *Packet) *Packet {
	c := tp.pool.get()
	*c = *p
	c.injected = true
	return c
}

// topoSampleCb re-arms the periodic queue-occupancy sampler.
func topoSampleCb(arg any) { arg.(*Topology).sampleQueues() }

// sampleQueues emits one queue-occupancy event per link (in
// construction order, labelled) and reschedules itself; the engine
// stops dispatching past the run horizon.
func (tp *Topology) sampleQueues() {
	now := tp.Eng.Now()
	for _, l := range tp.links {
		rate := 0.0
		if l.cap != nil {
			rate = l.cap.RateAt(now)
		}
		tp.qEvBuf = telemetry.Event{T: int64(now), Type: telemetry.TypeQueue, Flow: -1,
			Link: l.label, Queue: int64(l.QueuedBytes()), Rate: rate}
		tp.sampleTracer.Emit(&tp.qEvBuf)
	}
	tp.Eng.AfterCall(queueSampleEvery, topoSampleCb, tp)
}

// AddFlowOn attaches a sender driven by ctrl to the route, active on
// [start, stop). A zero stop means "until the end of the run".
func (tp *Topology) AddFlowOn(r *Route, ctrl cc.Controller, start, stop time.Duration) *Flow {
	f := &Flow{
		ID:      len(tp.flows),
		topo:    tp,
		route:   r,
		ctrl:    ctrl,
		mss:     cc.DefaultMSS,
		startAt: start,
		stopAt:  stop,
	}
	f.paceTimer = tp.Eng.NewDeadline(paceCb, f)
	f.rtoTimer = tp.Eng.NewDeadline(rtoCb, f)
	if b := tp.tcfg.SeriesBucket; b > 0 {
		f.Stats.Throughput = NewSeries(b)
		f.Stats.Delay = NewSeries(b)
	}
	tp.flows = append(tp.flows, f)
	tp.Eng.AtCall(start, flowStartCb, f)
	if stop > 0 {
		tp.Eng.AtCall(stop, flowStopCb, f)
	}
	return f
}

func flowStartCb(arg any) { arg.(*Flow).start() }
func flowStopCb(arg any)  { arg.(*Flow).stop() }

// Flows returns the attached flows in creation order.
func (tp *Topology) Flows() []*Flow { return tp.flows }

// Run advances the simulation to time d and finalises flow statistics.
// When a Health sampler is configured, the engine is registered for the
// duration of the run so its progress counters feed the health gauges.
func (tp *Topology) Run(d time.Duration) {
	if tp.tcfg.Health != nil {
		tp.tcfg.Health.Register(tp.Eng)
		defer tp.tcfg.Health.Unregister(tp.Eng)
	}
	tp.Eng.Run(d)
	for _, f := range tp.flows {
		if f.running {
			f.stop()
		}
	}
}

// LinkUtilization returns the link's delivered bytes divided by its
// mean capacity over [0, d].
func (tp *Topology) LinkUtilization(l *Link, d time.Duration) float64 {
	mean := trace.MeanRate(l.cap, d, 10*time.Millisecond)
	if mean <= 0 || d <= 0 {
		return 0
	}
	return float64(l.DeliveredBytes()) / (mean * d.Seconds())
}

// RouteBottleneck returns the route's minimum-mean-capacity link over
// [0, d] — the hop whose utilization stands for the route's.
func (tp *Topology) RouteBottleneck(r *Route, d time.Duration) *Link {
	var bott *Link
	best := 0.0
	for _, l := range r.links {
		mean := trace.MeanRate(l.cap, d, 10*time.Millisecond)
		if bott == nil || mean < best {
			bott, best = l, mean
		}
	}
	return bott
}

// linkTracer stamps a link label onto events that pass through without
// one, giving per-link identity to emitters (fault injectors) that are
// unaware of which link they ride.
type linkTracer struct {
	t     telemetry.Tracer
	label string
}

func (lt linkTracer) Enabled() bool { return true }

func (lt linkTracer) Emit(e *telemetry.Event) {
	if e.Link == "" {
		e.Link = lt.label
	}
	lt.t.Emit(e)
}
