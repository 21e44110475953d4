package telemetry

import (
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// TSCollector is a Tracer that folds the event stream into a TSDB:
// per-link queue depth / capacity / throughput / drop rate / CE-mark
// rate, per-flow rate / RTT / Eq. 1 utility, and per-profile
// aggregates for flows bound to a utility profile (TypeProfile
// events). All bucketing is keyed on virtual event time, so a live
// collector and an offline replay of the same recorded stream produce
// byte-identical snapshots.
//
// The steady-state Emit path (known link, known flow) performs no
// allocation (TestTimeSeriesBudget); series and per-flow slots
// allocate only on first sight.
type TSCollector struct {
	mu    sync.Mutex
	db    *TSDB
	links map[string]*linkTS
	profs map[string]*profTS
	flows []*flowTS // indexed by flow ID
	// Single-entry label cache: netem emits long runs of events on the
	// same link, so this skips the map lookup on the hot path.
	lastLabel string
	lastLink  *linkTS
	maxT      int64
}

type linkTS struct {
	queue *TSeries // bytes queued, gauge
	cap   *TSeries // capacity Mbit/s, gauge
	thr   *TSeries // enqueued bytes -> Mbit/s, rate
	drops *TSeries // drops/s, rate
	marks *TSeries // CE marks/s, rate
}

type flowTS struct {
	rate *TSeries // applied rate Mbit/s, gauge
	rtt  *TSeries // smoothed RTT ms, gauge
	util *TSeries // Eq. 1 utility of the chosen candidate, gauge
	send *TSeries // enqueued bytes -> Mbit/s, rate
	prof *profTS  // nil until a TypeProfile event binds the flow
	// firstLink pins the flow's ingress hop so multi-hop streams,
	// which re-enqueue each packet at every hop, count flow/profile
	// bytes once (per-link series still see every hop).
	firstLink     string
	haveFirstLink bool
}

type profTS struct {
	rate *TSeries
	rtt  *TSeries
	util *TSeries
	thr  *TSeries
}

// bnLabel stands in for the unlabelled single-bottleneck link so every
// per-link series (and exported metric) carries a link label.
const bnLabel = "bn"

const bytesToMbit = 8e-6

// NewTSCollector returns a collector with the given base bucket width
// and per-series capacity (zeros select the TSDB defaults).
func NewTSCollector(bucket time.Duration, capacity int) *TSCollector {
	return &TSCollector{
		db:    NewTSDB(bucket, capacity),
		links: make(map[string]*linkTS, 8),
		profs: make(map[string]*profTS, 8),
	}
}

// Enabled implements Tracer: the collector consumes every event.
func (c *TSCollector) Enabled() bool { return true }

// link returns (registering on first sight) the series set for a link
// label; "" maps to the single-bottleneck pseudo-label.
func (c *TSCollector) link(label string) *linkTS {
	if label == "" {
		label = bnLabel
	}
	if label == c.lastLabel && c.lastLink != nil {
		return c.lastLink
	}
	l, ok := c.links[label]
	if !ok {
		l = &linkTS{
			queue: c.db.Series(tsName("link_queue_bytes", "link", label), TSGauge, 1),
			cap:   c.db.Series(tsName("link_capacity_mbps", "link", label), TSGauge, 1),
			thr:   c.db.Series(tsName("link_throughput_mbps", "link", label), TSRate, bytesToMbit),
			drops: c.db.Series(tsName("link_drops_per_s", "link", label), TSRate, 1),
			marks: c.db.Series(tsName("link_marks_per_s", "link", label), TSRate, 1),
		}
		c.links[label] = l
	}
	c.lastLabel, c.lastLink = label, l
	return l
}

// flow returns (registering on first sight) the series set for a flow
// ID, nil for the sampler's pseudo-flow (-1).
func (c *TSCollector) flow(id int) *flowTS {
	if id < 0 {
		return nil
	}
	for id >= len(c.flows) {
		c.flows = append(c.flows, nil)
	}
	f := c.flows[id]
	if f == nil {
		fv := strconv.Itoa(id)
		f = &flowTS{
			rate: c.db.Series(tsName("flow_rate_mbps", "flow", fv), TSGauge, 1),
			rtt:  c.db.Series(tsName("flow_rtt_ms", "flow", fv), TSGauge, 1),
			util: c.db.Series(tsName("flow_utility", "flow", fv), TSGauge, 1),
			send: c.db.Series(tsName("flow_send_mbps", "flow", fv), TSRate, bytesToMbit),
		}
		c.flows[id] = f
	}
	return f
}

// profile returns (registering on first sight) the aggregate series
// set for a utility-profile name.
func (c *TSCollector) profile(name string) *profTS {
	p, ok := c.profs[name]
	if !ok {
		p = &profTS{
			rate: c.db.Series(tsName("profile_rate_mbps", "profile", name), TSGauge, 1),
			rtt:  c.db.Series(tsName("profile_rtt_ms", "profile", name), TSGauge, 1),
			util: c.db.Series(tsName("profile_utility", "profile", name), TSGauge, 1),
			thr:  c.db.Series(tsName("profile_throughput_mbps", "profile", name), TSRate, bytesToMbit),
		}
		c.profs[name] = p
	}
	return p
}

// Emit implements Tracer.
func (c *TSCollector) Emit(e *Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.T > c.maxT {
		c.maxT = e.T
	}
	switch e.Type {
	case TypeQueue:
		l := c.link(e.Link)
		l.queue.Add(e.T, float64(e.Queue))
		if e.Rate > 0 {
			l.cap.Add(e.T, e.Rate*bytesToMbit)
		}
	case TypeEnqueue:
		l := c.link(e.Link)
		l.queue.Add(e.T, float64(e.Queue))
		l.thr.Add(e.T, float64(e.Bytes))
		if e.Reason == ReasonCE {
			l.marks.Add(e.T, 1)
		}
		if f := c.flow(e.Flow); f != nil {
			if !f.haveFirstLink {
				f.firstLink, f.haveFirstLink = e.Link, true
			}
			if e.Link == f.firstLink {
				f.send.Add(e.T, float64(e.Bytes))
				if f.prof != nil {
					f.prof.thr.Add(e.T, float64(e.Bytes))
				}
			}
		}
	case TypeDrop:
		l := c.link(e.Link)
		l.drops.Add(e.T, 1)
		l.queue.Add(e.T, float64(e.Queue))
	case TypeDecision:
		f := c.flow(e.Flow)
		if f == nil {
			return
		}
		if e.RTT > 0 {
			f.rtt.Add(e.T, float64(e.RTT)/1e6)
			if f.prof != nil {
				f.prof.rtt.Add(e.T, float64(e.RTT)/1e6)
			}
		}
		x, u := e.Chosen()
		f.rate.Add(e.T, x*bytesToMbit)
		f.util.Add(e.T, u)
		if f.prof != nil {
			f.prof.rate.Add(e.T, x*bytesToMbit)
			f.prof.util.Add(e.T, u)
		}
	case TypeNoAck:
		f := c.flow(e.Flow)
		if f == nil || e.RTT <= 0 {
			return
		}
		f.rtt.Add(e.T, float64(e.RTT)/1e6)
		if f.prof != nil {
			f.prof.rtt.Add(e.T, float64(e.RTT)/1e6)
		}
	case TypeStage, TypeAction:
		f := c.flow(e.Flow)
		if f == nil || e.Rate <= 0 {
			return
		}
		f.rate.Add(e.T, e.Rate*bytesToMbit)
		if f.prof != nil {
			f.prof.rate.Add(e.T, e.Rate*bytesToMbit)
		}
	case TypeProfile:
		if f := c.flow(e.Flow); f != nil && e.Name != "" {
			f.prof = c.profile(e.Name)
		}
	}
}

// Merge folds src into c in caller order (the sweep engine flushes
// jobs in job order, so merged snapshots are byte-identical at any
// worker count). src is left untouched.
func (c *TSCollector) Merge(src *TSCollector) {
	if src == nil || src == c {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	src.mu.Lock()
	defer src.mu.Unlock()
	c.db.Merge(src.db)
	if src.maxT > c.maxT {
		c.maxT = src.maxT
	}
}

// Snapshot returns a point-in-time copy of every series.
func (c *TSCollector) Snapshot() TSSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.db.Snapshot()
}

// WriteJSON writes the deterministic snapshot JSON (see TSDB.WriteJSON).
func (c *TSCollector) WriteJSON(w io.Writer) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.db.WriteJSON(w)
}

// ExportProm mirrors the latest bucket of every series into reg as
// libra_ts_* gauges.
func (c *TSCollector) ExportProm(reg *Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.db.ExportProm(reg)
}

// LinkLive is the current state of one link, for the /topo API and the
// dashboard weathermap.
type LinkLive struct {
	Label          string  `json:"label"`
	QueueBytes     float64 `json:"queue_bytes"`
	CapacityMbps   float64 `json:"capacity_mbps"`
	ThroughputMbps float64 `json:"throughput_mbps"`
	Utilization    float64 `json:"utilization"`
	DropsPerS      float64 `json:"drops_per_s"`
	MarksPerS      float64 `json:"marks_per_s"`
}

// LinksLive summarises every link's most recent buckets, sorted by
// label. Rates read the last *completed* bucket so a half-filled
// current bucket doesn't understate throughput.
func (c *TSCollector) LinksLive() []LinkLive {
	c.mu.Lock()
	defer c.mu.Unlock()
	labels := make([]string, 0, len(c.links))
	for label := range c.links {
		labels = append(labels, label)
	}
	out := make([]LinkLive, 0, len(labels))
	sort.Strings(labels)
	for _, label := range labels {
		l := c.links[label]
		ll := LinkLive{Label: label}
		if b, ok := l.queue.lastBucket(l.queue.used - 1); ok {
			ll.QueueBytes = b.sum / float64(b.n)
		}
		if b, ok := l.cap.lastBucket(l.cap.used - 1); ok {
			ll.CapacityMbps = b.sum / float64(b.n)
		}
		ll.ThroughputMbps = c.lastRate(l.thr)
		ll.DropsPerS = c.lastRate(l.drops)
		ll.MarksPerS = c.lastRate(l.marks)
		if ll.CapacityMbps > 0 {
			ll.Utilization = ll.ThroughputMbps / ll.CapacityMbps
			if ll.Utilization > 1 {
				ll.Utilization = 1
			}
		}
		out = append(out, ll)
	}
	return out
}

// lastRate reads a rate series' last completed bucket (the one before
// the bucket holding maxT), falling back to the latest non-empty one.
func (c *TSCollector) lastRate(s *TSeries) float64 {
	limit := int(c.maxT/s.width) - 1
	b, ok := s.lastBucket(limit)
	if !ok {
		if b, ok = s.lastBucket(s.used - 1); !ok {
			return 0
		}
	}
	return b.sum * s.scale / (float64(s.width) / 1e9)
}
