package telemetry

import (
	"fmt"
	"os"
	"path/filepath"
)

// DefaultFlightDepth is the per-flow ring capacity when FlightConfig
// leaves PerFlow zero: enough to hold several control cycles' worth of
// decision/stage/no_ack events — the seconds leading up to an incident.
const DefaultFlightDepth = 256

// FlightConfig parameterizes a FlightRecorder.
type FlightConfig struct {
	// PerFlow is the ring capacity per flow (DefaultFlightDepth if 0).
	PerFlow int
	// Dir is the directory dump files are written into. Dumps are
	// skipped (but still counted as triggers suppressed) when empty.
	Dir string
	// Metrics, when set, receives libra_flight_dumps_total and
	// libra_flight_evictions_total counters.
	Metrics *Registry
}

// stampedEvent pairs an event with its global arrival index, so a dump
// can interleave a flow's ring with the link ring in emission order.
type stampedEvent struct {
	seq uint64
	ev  Event
}

// flightRing is one flow's fixed-capacity event window.
type flightRing struct {
	buf  []stampedEvent
	head int // next write slot
	n    int // live entries (== len(buf) once wrapped)
}

// FlightRecorder is an always-on, bounded tracer: it retains the last
// PerFlow events per flow (plus the link's own ring under flow -1) in
// fixed-size ring buffers and writes a merged JSONL snapshot —
// flight-<flow>-<simtime>.jsonl — whenever an anomaly passes through
// the stream or TriggerDump is called (the analyzer's detectors, the
// no-ACK outage trigger among them, call it). Steady state is
// allocation-free after each flow's first event; rings never grow.
//
// FlightRecorder composes via Multi like any Tracer and shares the
// single-emitter contract: it must only see one goroutine's stream. In
// sweeps that is the parent context's ordered replay, which is what
// makes dump files byte-identical at any worker count.
type FlightRecorder struct {
	perFlow   int
	dir       string
	seq       uint64
	rings     map[int]*flightRing
	dumps     *Counter
	evictions *Counter
	fileSeq   map[string]int // filename -> next dedupe suffix
	err       error          // first dump-write error, sticky
}

// NewFlightRecorder returns a recorder with empty rings.
func NewFlightRecorder(cfg FlightConfig) *FlightRecorder {
	if cfg.PerFlow <= 0 {
		cfg.PerFlow = DefaultFlightDepth
	}
	f := &FlightRecorder{
		perFlow: cfg.PerFlow,
		dir:     cfg.Dir,
		rings:   map[int]*flightRing{},
		fileSeq: map[string]int{},
	}
	if cfg.Metrics != nil {
		f.dumps = cfg.Metrics.Counter("libra_flight_dumps_total",
			"Flight-recorder dump files written on anomaly triggers.")
		f.evictions = cfg.Metrics.Counter("libra_flight_evictions_total",
			"Events evicted from full flight-recorder rings.")
	} else {
		f.dumps = &Counter{}
		f.evictions = &Counter{}
	}
	return f
}

// Enabled implements Tracer.
func (f *FlightRecorder) Enabled() bool { return true }

// Emit implements Tracer: append to the flow's ring (evicting the
// oldest entry once full) and self-trigger a dump when the event is an
// anomaly.
func (f *FlightRecorder) Emit(e *Event) {
	f.seq++
	r := f.rings[e.Flow]
	if r == nil {
		r = &flightRing{buf: make([]stampedEvent, f.perFlow)}
		f.rings[e.Flow] = r
	}
	if r.n == len(r.buf) {
		f.evictions.Inc()
	} else {
		r.n++
	}
	r.buf[r.head] = stampedEvent{seq: f.seq, ev: *e}
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}

	if e.Type == TypeAnomaly {
		f.TriggerDump(e.Flow, e.T, e.Reason)
	}
}

// snapshot returns the ring's live entries, oldest first. Callers own
// the returned slice.
func (r *flightRing) snapshot() []stampedEvent {
	if r == nil || r.n == 0 {
		return nil
	}
	out := make([]stampedEvent, 0, r.n)
	start := r.head - r.n
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.n; i++ {
		j := start + i
		if j >= len(r.buf) {
			j -= len(r.buf)
		}
		out = append(out, r.buf[j])
	}
	return out
}

// TriggerDump writes the flow's retained window — its own ring merged
// with the link ring (flow -1) in emission order — to
// <dir>/flight-<flow>-<simtime>.jsonl. reason is recorded in a
// trailing anomaly event when the trigger came from outside the stream
// (analyzer callbacks), so the dump is self-describing. Repeated
// triggers for the same flow and sim-time get a deterministic -<k>
// filename suffix instead of overwriting.
func (f *FlightRecorder) TriggerDump(flow int, simTime int64, reason string) {
	evs := f.rings[flow].snapshot()
	if flow != -1 {
		link := f.rings[-1].snapshot()
		evs = mergeBySeq(evs, link)
	}
	if len(evs) == 0 {
		return
	}
	if f.dir == "" {
		f.dumps.Inc() // trigger observed, nowhere to write
		return
	}
	name := fmt.Sprintf("flight-%d-%d.jsonl", flow, simTime)
	if k := f.fileSeq[name]; k > 0 {
		f.fileSeq[name] = k + 1
		name = fmt.Sprintf("flight-%d-%d-%d.jsonl", flow, simTime, k)
	} else {
		f.fileSeq[name] = 1
	}
	w, err := os.Create(filepath.Join(f.dir, name))
	if err != nil {
		f.setErr(err)
		return
	}
	rec := NewRecorder(w)
	for i := range evs {
		rec.Emit(&evs[i].ev)
	}
	if last := evs[len(evs)-1].ev; reason != "" &&
		!(last.Type == TypeAnomaly && last.Reason == reason) {
		// External trigger (analyzer callback): append the cause so the
		// dump explains itself.
		rec.Emit(&Event{T: simTime, Type: TypeAnomaly, Flow: flow, Reason: reason})
	}
	f.setErr(rec.Close())
	f.dumps.Inc()
}

// mergeBySeq interleaves two seq-ascending slices.
func mergeBySeq(a, b []stampedEvent) []stampedEvent {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]stampedEvent, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].seq < b[j].seq {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

func (f *FlightRecorder) setErr(err error) {
	if f.err == nil && err != nil {
		f.err = err
	}
}

// Dumps returns the number of dump triggers fired so far.
func (f *FlightRecorder) Dumps() int64 { return f.dumps.Value() }

// Evictions returns the number of events aged out of full rings.
func (f *FlightRecorder) Evictions() int64 { return f.evictions.Value() }

// Err returns the first dump-write error encountered, if any.
func (f *FlightRecorder) Err() error { return f.err }
