package telemetry

// Buffer is an in-memory Tracer that copies every emitted event for
// later replay. Tracer implementations are not required to be
// goroutine-safe, so concurrent sweep jobs cannot share one sink;
// instead each job records into its own Buffer and the sweep engine
// replays the buffers in job order into the shared sink. The recorded
// event stream is therefore byte-identical at any worker count.
type Buffer struct {
	evs []Event
}

// Enabled implements Tracer.
func (b *Buffer) Enabled() bool { return true }

// Emit implements Tracer by copying the event (Event is a flat value
// struct, so the copy is deep).
func (b *Buffer) Emit(e *Event) { b.evs = append(b.evs, *e) }

// Len returns the number of buffered events.
func (b *Buffer) Len() int { return len(b.evs) }

// ReplayTo re-emits the buffered events, in order, into t. A nil or
// disabled sink is a no-op.
func (b *Buffer) ReplayTo(t Tracer) {
	if b == nil || !Enabled(t) {
		return
	}
	for i := range b.evs {
		t.Emit(&b.evs[i])
	}
}

// Reset drops the buffered events and releases their memory, so a
// buffer that outlives its replay (referenced from a job's results)
// holds nothing.
func (b *Buffer) Reset() { b.evs = nil }
