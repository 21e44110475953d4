package netem

import (
	"time"

	"libra/internal/cc"
	"libra/internal/telemetry"
	"libra/internal/trace"
)

// Config describes a single-bottleneck emulated path — the degenerate
// two-node/one-link topology every original paper experiment runs on.
type Config struct {
	// Capacity is the bottleneck capacity trace.
	Capacity trace.Trace
	// MinRTT is the round-trip propagation delay, split evenly between
	// the forward (post-serialization) and ACK directions.
	MinRTT time.Duration
	// BufferBytes is the droptail queue limit, counting the packet in
	// service (see LinkSpec.BufferBytes).
	BufferBytes int
	// LossRate is the iid stochastic loss probability.
	LossRate float64
	// ECNThreshold, when positive, enables ECN: packets enqueued while
	// the queue exceeds this many bytes are CE-marked and the mark is
	// echoed on their ACKs (DCTCP-style marking).
	ECNThreshold int
	// CoDel enables Controlled-Delay AQM at the bottleneck (RFC 8289
	// defaults: 5 ms target, 100 ms interval).
	CoDel bool
	// Faults, when non-nil, composes adversarial link dynamics onto the
	// bottleneck (see netem/faults): bursty loss, blackouts, reordering,
	// duplication, delay jitter, and capacity flaps. The injector is
	// bound to the network's engine and tracer at construction.
	Faults FaultInjector
	// Seed drives all stochastic behaviour.
	Seed int64
	// SeriesBucket, when positive, records per-flow throughput/delay
	// time series with this bucket width.
	SeriesBucket time.Duration
	// Tracer, when enabled, receives bottleneck telemetry: per-packet
	// enqueue/drop events (drops tagged tail/channel/aqm) and queue
	// occupancy every 100 ms.
	Tracer telemetry.Tracer
	// Health, when set, has the network's engine registered for runtime
	// health sampling for the lifetime of Run.
	Health *telemetry.Health
}

// Network is the single-bottleneck view of a two-node/one-link
// Topology: N senders share one droptail FIFO bottleneck and ACKs
// return on an uncongested reverse path. It exists as the degenerate
// case of the topology engine — its one link stays unlabelled, so the
// event stream, stochastic draws, and reports are identical to the
// pre-topology emulator.
type Network struct {
	*Topology
	link  *Link
	route *Route
}

// New builds a single-bottleneck network. The engine is created
// internally and owned by the underlying topology.
func New(cfg Config) *Network {
	tp, err := newTopology(TopologyConfig{
		Nodes: []string{"src", "dst"},
		Links: []LinkSpec{{
			From:         "src",
			To:           "dst",
			Capacity:     cfg.Capacity,
			PropDelay:    cfg.MinRTT - cfg.MinRTT/2,
			BufferBytes:  cfg.BufferBytes,
			LossRate:     cfg.LossRate,
			ECNThreshold: cfg.ECNThreshold,
			CoDel:        cfg.CoDel,
			Faults:       cfg.Faults,
		}},
		Seed:         cfg.Seed,
		SeriesBucket: cfg.SeriesBucket,
		Tracer:       cfg.Tracer,
		Health:       cfg.Health,
	})
	if err != nil {
		panic("netem: degenerate topology rejected: " + err.Error()) // unreachable: spec is built here
	}
	route, err := tp.AddRoute("", []string{""}, cfg.MinRTT/2)
	if err != nil {
		panic("netem: degenerate route rejected: " + err.Error()) // unreachable
	}
	return &Network{Topology: tp, link: tp.links[0], route: route}
}

// Link exposes the bottleneck for queue statistics.
func (n *Network) Link() *Link { return n.link }

// AddFlow attaches a sender driven by ctrl to the bottleneck path,
// active on [start, stop). A zero stop means "until the end of the
// run".
func (n *Network) AddFlow(ctrl cc.Controller, start, stop time.Duration) *Flow {
	return n.AddFlowOn(n.route, ctrl, start, stop)
}

// Utilization returns delivered bytes at the bottleneck divided by the
// link's mean capacity over [0, d].
func (n *Network) Utilization(d time.Duration) float64 {
	return n.LinkUtilization(n.link, d)
}
