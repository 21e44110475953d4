package netem

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"libra/internal/cc"
	"libra/internal/sim"
	"libra/internal/telemetry"
	"libra/internal/trace"
)

// collector is a test Tracer that keeps every event for inspection.
type collector struct{ evs []telemetry.Event }

func (c *collector) Enabled() bool           { return true }
func (c *collector) Emit(e *telemetry.Event) { c.evs = append(c.evs, *e) }

// eceCounter is an unresponsive CBR sender that counts CE echoes, so
// tests can observe marks surviving end to end across a route.
type eceCounter struct {
	cc.FixedRate
	ECECount int
}

func (c *eceCounter) OnAck(a *cc.Ack) {
	if a.ECE {
		c.ECECount++
	}
}

// threeHop builds the canonical parking-lot fabric: n0 -> n1 -> n2 ->
// n3 with per-hop capacities in Mbps. Returns the topology and the
// 3-hop main route.
func threeHop(t *testing.T, tracer telemetry.Tracer, mbps ...float64) (*Topology, *Route) {
	t.Helper()
	for len(mbps) < 3 {
		mbps = append(mbps, 96)
	}
	tp, err := NewTopology(TopologyConfig{
		Nodes: []string{"n0", "n1", "n2", "n3"},
		Links: []LinkSpec{
			{Label: "h0", From: "n0", To: "n1", Capacity: trace.Constant(trace.Mbps(mbps[0])), PropDelay: 5 * time.Millisecond},
			{Label: "h1", From: "n1", To: "n2", Capacity: trace.Constant(trace.Mbps(mbps[1])), PropDelay: 5 * time.Millisecond},
			{Label: "h2", From: "n2", To: "n3", Capacity: trace.Constant(trace.Mbps(mbps[2])), PropDelay: 5 * time.Millisecond},
		},
		Seed:   7,
		Tracer: tracer,
	})
	if err != nil {
		t.Fatalf("NewTopology: %v", err)
	}
	route, err := tp.AddRoute("main", []string{"h0", "h1", "h2"}, -1)
	if err != nil {
		t.Fatalf("AddRoute: %v", err)
	}
	return tp, route
}

func TestTopologyMultiHopDelivery(t *testing.T) {
	tp, route := threeHop(t, nil, 96, 96, 96)
	if got := route.AckDelay(); got != 15*time.Millisecond {
		t.Fatalf("symmetric ack delay = %v, want 15ms", got)
	}
	f := tp.AddFlowOn(route, cc.FixedRate{R: trace.Mbps(20)}, 0, 0)
	tp.Run(5 * time.Second)

	if f.Stats.AckedBytes == 0 {
		t.Fatal("no bytes acknowledged across 3 hops")
	}
	// Uncongested route: no hop drops anything, and each hop delivers
	// monotonically no more than the previous one — differing only by
	// what is still in flight when the horizon hits.
	var delivered []int64
	for _, l := range tp.Links() {
		delivered = append(delivered, l.DeliveredBytes())
		if n := l.DropStats().Total(); n != 0 {
			t.Errorf("link %s dropped %d packets on an uncongested route", l.Label(), n)
		}
	}
	const slack = 20 * 1500 // a pipeline's worth of in-flight packets
	if delivered[0] < delivered[1] || delivered[1] < delivered[2] ||
		delivered[0]-delivered[2] > slack {
		t.Errorf("per-hop delivered bytes inconsistent: %v", delivered)
	}
	// Min RTT = 3 serializations + 15 ms forward prop + 15 ms ACK.
	if f.Stats.MinRTT < 30*time.Millisecond {
		t.Errorf("min RTT %v below the 30 ms propagation floor", f.Stats.MinRTT)
	}
}

func TestTopologyBottleneckAttribution(t *testing.T) {
	var buf collector
	tp, route := threeHop(t, &buf, 96, 12, 96)
	tp.AddFlowOn(route, cc.FixedRate{R: trace.Mbps(40)}, 0, 0)
	tp.Run(3 * time.Second)

	h1 := tp.LinkByLabel("h1")
	if h1 == nil {
		t.Fatal("LinkByLabel(h1) = nil")
	}
	if h1.DropStats().Tail == 0 {
		t.Fatal("overdriven middle hop recorded no tail drops")
	}
	for _, lbl := range []string{"h0", "h2"} {
		if n := tp.LinkByLabel(lbl).DropStats().Total(); n != 0 {
			t.Errorf("non-bottleneck link %s dropped %d packets", lbl, n)
		}
	}
	if b := tp.RouteBottleneck(route, 3*time.Second); b.Label() != "h1" {
		t.Errorf("RouteBottleneck = %q, want h1", b.Label())
	}

	// Every drop event in the stream must be attributed to h1, and
	// queue samples must cover all three labels.
	var dropLinks, queueLinks map[string]bool
	dropLinks, queueLinks = map[string]bool{}, map[string]bool{}
	for _, e := range buf.evs {
		switch e.Type {
		case telemetry.TypeDrop:
			dropLinks[e.Link] = true
		case telemetry.TypeQueue:
			queueLinks[e.Link] = true
		}
	}
	if len(dropLinks) != 1 || !dropLinks["h1"] {
		t.Errorf("drop events attributed to %v, want only h1", dropLinks)
	}
	for _, lbl := range []string{"h0", "h1", "h2"} {
		if !queueLinks[lbl] {
			t.Errorf("no queue samples for link %s", lbl)
		}
	}
}

func TestTopologyValidation(t *testing.T) {
	base := func() TopologyConfig {
		return TopologyConfig{
			Nodes: []string{"a", "b", "c"},
			Links: []LinkSpec{
				{Label: "ab", From: "a", To: "b", Capacity: trace.Constant(trace.Mbps(10))},
				{Label: "bc", From: "b", To: "c", Capacity: trace.Constant(trace.Mbps(10))},
			},
			Seed: 1,
		}
	}
	cases := []struct {
		name string
		mut  func(*TopologyConfig)
		want string
	}{
		{"unlabelled beside a second link", func(c *TopologyConfig) { c.Links[0].Label = "" }, "no label"},
		{"no capacity", func(c *TopologyConfig) { c.Links[1].Capacity = nil }, "no capacity"},
		{"unknown node", func(c *TopologyConfig) { c.Links[0].To = "zz" }, "unknown node"},
		{"self loop", func(c *TopologyConfig) { c.Links[0].To = "a" }, "self-loop"},
		{"dup label", func(c *TopologyConfig) { c.Links[1].Label = "ab" }, "duplicate link label"},
		{"dup node", func(c *TopologyConfig) { c.Nodes = append(c.Nodes, "a") }, "duplicate node"},
		{"no links", func(c *TopologyConfig) { c.Links = nil }, "no links"},
	}
	for _, tc := range cases {
		cfg := base()
		tc.mut(&cfg)
		if _, err := NewTopology(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error = %v, want containing %q", tc.name, err, tc.want)
		}
	}

	// A sole link may go unlabelled: the single-bottleneck encoding.
	sole := base()
	sole.Links = sole.Links[:1]
	sole.Links[0].Label = ""
	if _, err := NewTopology(sole); err != nil {
		t.Errorf("sole unlabelled link rejected: %v", err)
	}

	// New goes through the same checks: a nil capacity fails at
	// construction instead of at the first service.
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "no capacity") {
				t.Errorf("New without a capacity: recovered %v, want a no-capacity panic", r)
			}
		}()
		New(Config{MinRTT: 10 * time.Millisecond})
	}()

	tp, err := NewTopology(base())
	if err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for _, rc := range []struct {
		name string
		via  []string
		want string
	}{
		{"unknown link", []string{"zz"}, "unknown link"},
		{"empty", nil, "no links"},
		{"disconnected", []string{"bc", "ab"}, "breaks"},
		{"loop", []string{"ab", "bc", "ab"}, "revisits"},
	} {
		if _, err := tp.AddRoute("r", rc.via, -1); err == nil || !strings.Contains(err.Error(), rc.want) {
			t.Errorf("route %s: error = %v, want containing %q", rc.name, err, rc.want)
		}
	}
}

// TestTopoSteadyStateAllocs asserts the multi-hop zero-alloc
// invariant: once a 3-hop route is warm, advancing virtual time must
// allocate nothing — forwarding across hops rides the same pooled
// callback path as the single-bottleneck case.
func TestTopoSteadyStateAllocs(t *testing.T) {
	tp, route := threeHop(t, nil, 96, 48, 96)
	for i := 0; i < 4; i++ {
		tp.AddFlowOn(route, cc.FixedRate{R: trace.Mbps(20)}, 0, 0)
	}
	tp.Run(2 * time.Second) // warm-up: queues sized, pools populated
	horizon := 2 * time.Second
	avg := testing.AllocsPerRun(5, func() {
		horizon += 500 * time.Millisecond
		tp.Eng.Run(horizon)
	})
	if avg != 0 {
		t.Errorf("steady-state multi-hop run allocates %.1f allocs per 500ms slice, want 0", avg)
	}
}

// TestECNCoDelSameLink covers marking and AQM dropping composed on one
// link: DCTCP-style threshold marking happens at enqueue, CoDel head
// drops at dequeue, and the two interact — a packet CE-marked on a
// standing queue can still be discarded by the AQM before service, so
// marking never shields a packet from CoDel, and AQM drops never count
// as marks.
func TestECNCoDelSameLink(t *testing.T) {
	build := func(ecn int, codel bool) *Network {
		n := New(Config{
			Capacity:     trace.Constant(trace.Mbps(12)),
			MinRTT:       20 * time.Millisecond,
			BufferBytes:  300_000,
			ECNThreshold: ecn,
			CoDel:        codel,
			Seed:         11,
		})
		// Overdrive hard so a deep standing queue forms: both the
		// marking threshold and CoDel's 5 ms sojourn target are crossed.
		n.AddFlow(cc.FixedRate{R: trace.Mbps(30)}, 0, 0)
		return n
	}

	ecnOnly := build(30_000, false)
	ecnOnly.Run(5 * time.Second)
	dsE := ecnOnly.Link().DropStats()
	if dsE.Marked == 0 {
		t.Fatal("ECN-only link marked nothing over a standing queue")
	}
	if dsE.AQM != 0 {
		t.Fatalf("ECN-only link recorded %d AQM drops without CoDel", dsE.AQM)
	}

	codelOnly := build(0, true)
	codelOnly.Run(5 * time.Second)
	dsC := codelOnly.Link().DropStats()
	if dsC.AQM == 0 {
		t.Fatal("CoDel-only link head-dropped nothing over a standing queue")
	}
	if dsC.Marked != 0 {
		t.Fatalf("CoDel-only link marked %d packets without ECN", dsC.Marked)
	}

	both := build(30_000, true)
	both.Run(5 * time.Second)
	ds := both.Link().DropStats()
	if ds.Marked == 0 || ds.AQM == 0 {
		t.Fatalf("ECN+CoDel link: marked %d, AQM drops %d; want both > 0", ds.Marked, ds.AQM)
	}
	// Marking happens at enqueue, so with the same arrival process the
	// combined link cannot mark fewer packets than CoDel later drops
	// lets through — the counters are independent, not exclusive.
	delivered := both.Link().DeliveredBytes() / int64(cc.DefaultMSS)
	if ds.Marked <= ds.AQM {
		// With a 30 KB threshold under a CoDel-bounded queue the
		// standing queue hovers around the target; both counters must
		// still advance independently.
		t.Logf("marked %d <= aqm %d (informational)", ds.Marked, ds.AQM)
	}
	if delivered == 0 {
		t.Fatal("combined link delivered nothing")
	}
}

// TestECNCoDelMiddleHop runs the same composition on the middle hop of
// a 3-hop route and checks the marks survive to the receiver (CE is
// echoed end to end) while the edge hops stay clean.
func TestECNCoDelMiddleHop(t *testing.T) {
	tp, err := NewTopology(TopologyConfig{
		Nodes: []string{"n0", "n1", "n2", "n3"},
		Links: []LinkSpec{
			{Label: "h0", From: "n0", To: "n1", Capacity: trace.Constant(trace.Mbps(96)), PropDelay: 2 * time.Millisecond},
			{Label: "h1", From: "n1", To: "n2", Capacity: trace.Constant(trace.Mbps(12)), PropDelay: 2 * time.Millisecond,
				ECNThreshold: 30_000, CoDel: true},
			{Label: "h2", From: "n2", To: "n3", Capacity: trace.Constant(trace.Mbps(96)), PropDelay: 2 * time.Millisecond},
		},
		Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	route, err := tp.AddRoute("main", []string{"h0", "h1", "h2"}, -1)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := &eceCounter{FixedRate: cc.FixedRate{R: trace.Mbps(30)}}
	tp.AddFlowOn(route, ctrl, 0, 0)
	tp.Run(5 * time.Second)

	h1 := tp.LinkByLabel("h1").DropStats()
	if h1.Marked == 0 || h1.AQM == 0 {
		t.Fatalf("middle hop: marked %d, AQM drops %d; want both > 0", h1.Marked, h1.AQM)
	}
	for _, lbl := range []string{"h0", "h2"} {
		ds := tp.LinkByLabel(lbl).DropStats()
		if ds.Marked != 0 || ds.Total() != 0 {
			t.Errorf("edge hop %s: marked %d, drops %d; want clean", lbl, ds.Marked, ds.Total())
		}
	}
	if ctrl.ECECount == 0 {
		t.Fatal("no CE marks echoed to the sender across the route")
	}
}

// extraDelay is a fault injector that gives every packet the same
// ExtraDelay.
type extraDelay time.Duration

func (extraDelay) Bind(*sim.Engine, telemetry.Tracer) {}
func (d extraDelay) Ingress(time.Duration, int64, int) Verdict {
	return Verdict{ExtraDelay: time.Duration(d)}
}
func (extraDelay) RateScale(time.Duration) float64 { return 1 }

// TestExtraDelayAppliedOnce checks a fault's ExtraDelay delays the
// packet on the faulted hop only: two 48 Mbps hops of 5 ms give a 20.5
// ms minimum RTT (10 ms each way plus two 0.25 ms serializations), and
// 10 ms of extra delay on the first hop adds 10 ms, not 10 ms per hop.
func TestExtraDelayAppliedOnce(t *testing.T) {
	minRTT := func(faults FaultInjector) time.Duration {
		t.Helper()
		tp, err := NewTopology(TopologyConfig{
			Nodes: []string{"n0", "n1", "n2"},
			Links: []LinkSpec{
				{Label: "h0", From: "n0", To: "n1", Capacity: trace.Constant(trace.Mbps(48)), PropDelay: 5 * time.Millisecond, Faults: faults},
				{Label: "h1", From: "n1", To: "n2", Capacity: trace.Constant(trace.Mbps(48)), PropDelay: 5 * time.Millisecond},
			},
			Seed: 7,
		})
		if err != nil {
			t.Fatalf("NewTopology: %v", err)
		}
		route, err := tp.AddRoute("main", []string{"h0", "h1"}, -1)
		if err != nil {
			t.Fatalf("AddRoute: %v", err)
		}
		f := tp.AddFlowOn(route, cc.FixedRate{R: trace.Mbps(4)}, 0, 0)
		tp.Run(2 * time.Second)
		return f.Stats.MinRTT
	}
	if got, want := minRTT(nil), 20500*time.Microsecond; got != want {
		t.Fatalf("clean min RTT = %v, want %v", got, want)
	}
	if got, want := minRTT(extraDelay(10*time.Millisecond)), 30500*time.Microsecond; got != want {
		t.Fatalf("min RTT with 10ms extra delay on the first hop = %v, want %v", got, want)
	}
}
