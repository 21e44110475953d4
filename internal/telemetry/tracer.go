package telemetry

import "io"

// Tracer receives telemetry events. Implementations are not required
// to be goroutine-safe: the discrete-event simulator is single-threaded
// and emits from one goroutine.
//
// Hot-path convention: emitters cache Enabled() in a bool at
// construction (or SetTracer) time and guard every event build with
// that bool, so the disabled path is a single predictable branch — no
// interface call, no event construction. BenchmarkNopTracer enforces
// the budget.
type Tracer interface {
	// Enabled reports whether Emit does anything; emitters may skip
	// building events entirely when false.
	Enabled() bool
	// Emit records one event. The pointee is only read during the call,
	// so callers may reuse a single Event buffer across emissions.
	Emit(e *Event)
}

// Nop is the default tracer: disabled, emits nothing.
type Nop struct{}

// Enabled implements Tracer.
func (Nop) Enabled() bool { return false }

// Emit implements Tracer.
func (Nop) Emit(*Event) {}

// Enabled reports whether t is a live tracer (non-nil and enabled).
func Enabled(t Tracer) bool { return t != nil && t.Enabled() }

// Traceable is implemented by controllers that can be wired to a
// tracer after construction; id becomes the Flow field of emitted
// events. Controllers embedding other traceable components forward the
// call.
type Traceable interface {
	SetTracer(t Tracer, id int)
}

// flushThreshold is the buffered-byte level at which Recorder writes
// through to the underlying writer.
const flushThreshold = 64 * 1024

// Recorder is a buffered JSONL event sink. It encodes each event into
// an internal buffer with no per-event allocation and flushes to the
// underlying writer in flushThreshold chunks. Close (or Flush) must be
// called to drain the tail.
type Recorder struct {
	w      io.Writer
	buf    []byte
	events int64
	err    error
}

// NewRecorder returns a Recorder writing JSONL to w.
func NewRecorder(w io.Writer) *Recorder {
	return &Recorder{w: w, buf: make([]byte, 0, flushThreshold+4096)}
}

// Enabled implements Tracer.
func (r *Recorder) Enabled() bool { return true }

// Emit implements Tracer. Events with no schema version are encoded
// with SchemaVersion (the pointee is never written), so every
// persisted line self-describes its schema.
func (r *Recorder) Emit(e *Event) {
	if r.err != nil {
		return
	}
	v := e.V
	if v == 0 {
		v = SchemaVersion
	}
	r.buf = e.appendJSON(r.buf, v)
	r.buf = append(r.buf, '\n')
	r.events++
	if len(r.buf) >= flushThreshold {
		r.flush()
	}
}

func (r *Recorder) flush() {
	if len(r.buf) == 0 || r.err != nil {
		return
	}
	_, r.err = r.w.Write(r.buf)
	r.buf = r.buf[:0]
}

// Events returns the number of events emitted so far.
func (r *Recorder) Events() int64 { return r.events }

// Flush writes buffered events through and returns the first write
// error encountered, if any.
func (r *Recorder) Flush() error {
	r.flush()
	return r.err
}

// Close flushes and, when the underlying writer is an io.Closer,
// closes it.
func (r *Recorder) Close() error {
	r.flush()
	if c, ok := r.w.(io.Closer); ok {
		if err := c.Close(); err != nil && r.err == nil {
			r.err = err
		}
	}
	return r.err
}
