package telemetry

import "sync"

// pageEvents is the number of events one Buffer page holds: 256 events
// of 272 bytes, about 70 KB.
const pageEvents = 256

// page is one fixed-size block of buffered events.
type page [pageEvents]Event

// pagePool recycles pages across every Buffer in the process, so a
// traced sweep reuses the same memory job after job, in every worker
// and in nested and concurrent sweeps alike.
var pagePool = sync.Pool{New: func() any { return new(page) }}

// Buffer is an in-memory Tracer that copies every emitted event for
// later replay. Tracer implementations are not required to be
// goroutine-safe, so concurrent sweep jobs cannot share one sink;
// instead each job records into its own Buffer and the sweep engine
// replays the buffers in job order into the shared sink. The recorded
// event stream is therefore byte-identical at any worker count.
//
// Events are stored in fixed-size pages taken from a package-level
// pool and handed back by Reset, so a buffer never regrows or copies
// its events, and a job's buffer reuses the pages an earlier job
// released. Reuse rests on the Tracer contract: a sink reads the
// pointee only during Emit, so once ReplayTo returns no sink refers to
// a page. Pages are not cleared when they go back to the pool, because
// every slot a replay reads was first written by the buffer replaying
// it; a recycled page holds stale events only in slots beyond its
// buffer's length.
type Buffer struct {
	pages []*page
	n     int
}

// Enabled implements Tracer.
func (b *Buffer) Enabled() bool { return true }

// Emit implements Tracer by copying the event into the last page,
// taking a page from the pool when that one is full or there is none
// (Event is a flat value struct, so the copy is deep).
func (b *Buffer) Emit(e *Event) {
	i := b.n % pageEvents
	if i == 0 {
		b.pages = append(b.pages, pagePool.Get().(*page))
	}
	b.pages[len(b.pages)-1][i] = *e
	b.n++
}

// Len returns the number of buffered events.
func (b *Buffer) Len() int { return b.n }

// ReplayTo re-emits the buffered events, in order, into t. A nil or
// disabled sink is a no-op.
func (b *Buffer) ReplayTo(t Tracer) {
	if b == nil || !Enabled(t) {
		return
	}
	left := b.n
	for _, p := range b.pages {
		evs := p[:min(left, pageEvents)]
		for i := range evs {
			t.Emit(&evs[i])
		}
		left -= len(evs)
	}
}

// Reset drops the buffered events and hands their pages back to the
// pool, so a buffer that outlives its replay (referenced from a job's
// results) holds no events, and the next buffer to fill reuses them.
func (b *Buffer) Reset() {
	for i, p := range b.pages {
		pagePool.Put(p)
		b.pages[i] = nil
	}
	b.pages = b.pages[:0]
	b.n = 0
}
