// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine keeps a virtual clock and a priority queue of events.
// Events scheduled for the same instant fire in scheduling order, which
// makes every simulation exactly reproducible. It schedules three kinds
// of thing:
//
//   - callbacks: AtCall/AfterCall run a fixed Callback with an argument
//     once, fire and forget;
//   - delay lines: a Line is a fixed-delay FIFO (a link's propagation,
//     a route's ACK return) with one heap entry however many items it
//     holds;
//   - deadlines: a Deadline is a one-shot timer that may be set, moved
//     and stopped (a flow's RTO and pacing timer), with one heap entry
//     that moves lazily.
//
// Lines and deadlines keep the exact (at, seq) order of the callbacks
// they stand for.
//
// # Hot path
//
// The queue is an inlined, value-typed 4-ary min-heap of small (24-byte)
// entries — no per-event pointer, no interface boxing, no container/heap
// dispatch. Event payloads live in a slot table recycled through a free
// list, so steady-state scheduling and dispatch allocate nothing: with a
// package-level callback and a pointer argument, AtCall does not
// allocate. Each slot records its entry's heap index, so a Deadline set
// earlier than its entry can move the entry up in place.
package sim

import (
	"sync/atomic"
	"time"
)

// Clock is a point in virtual time, measured from the start of the
// simulation. It is a time.Duration so that the full arithmetic and
// formatting toolbox of the standard library applies.
type Clock = time.Duration

// Callback is a fixed function scheduled with AtCall/AfterCall, or run
// by a Line or a Deadline. The argument it was scheduled with is passed
// back at dispatch. Storing a pointer in arg does not allocate;
// package-level Callback values do not allocate either, which is what
// keeps the per-packet paths alloc-free.
type Callback func(arg any)

// heapEntry is one queue position: ordering key plus a handle into the
// slot table. Entries are moved by value during sifts; the payload never
// moves.
type heapEntry struct {
	at   Clock
	seq  uint64 // tie-breaker: FIFO among same-instant events
	slot int32
}

// slotRec holds one scheduled event's payload. pos is the entry's index
// in the heap, kept current by every sift. A callback's slot returns to
// the free list when it fires; a Line or a Deadline owns one slot for
// its whole life, marked by line or dl.
type slotRec struct {
	pos  int32
	cb   Callback
	arg  any
	line *Line
	dl   *Deadline
}

// Engine is a single-threaded discrete-event simulator.
type Engine struct {
	now        Clock
	seq        uint64
	heap       []heapEntry
	slots      []slotRec
	free       []int32 // recycled slot indices
	dispatched int64   // total events fired, counted on the hot path

	// progress mirrors now/dispatched/live through atomics for
	// cross-goroutine health sampling. The hot path refreshes it every
	// progressStride dispatches (amortized: three atomic stores per
	// stride), so readers see values at most one stride stale rather
	// than racing the single-threaded dispatch loop.
	progress struct {
		simNs   atomic.Int64
		events  atomic.Int64
		pending atomic.Int64
	}
}

// progressStride is the dispatch-count interval between atomic
// progress publications. A power of two keeps the hot-path check a
// mask; 1024 dispatches is well under a millisecond of wall time, so
// health samples taken every second lose nothing to the amortization.
const progressStride = 1024

// New returns an empty engine at virtual time zero.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Clock { return e.now }

// less orders entries by time, then FIFO by scheduling sequence.
func less(a, b *heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// siftUp restores heap order from entry i towards the root.
func (e *Engine) siftUp(i int) {
	h, slots := e.heap, e.slots
	ent := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !less(&ent, &h[p]) {
			break
		}
		h[i] = h[p]
		slots[h[i].slot].pos = int32(i)
		i = p
	}
	h[i] = ent
	slots[ent.slot].pos = int32(i)
}

// siftDown restores heap order from entry i down.
func (e *Engine) siftDown(i int) {
	h, slots := e.heap, e.slots
	n := len(h)
	ent := h[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if less(&h[j], &h[m]) {
				m = j
			}
		}
		if !less(&h[m], &ent) {
			break
		}
		h[i] = h[m]
		slots[h[i].slot].pos = int32(i)
		i = m
	}
	h[i] = ent
	slots[ent.slot].pos = int32(i)
}

// popRoot deletes the root entry: the last entry fills the hole and
// sifts down.
func (e *Engine) popRoot() {
	n := len(e.heap) - 1
	e.heap[0] = e.heap[n]
	e.heap = e.heap[:n]
	if n > 0 {
		e.siftDown(0)
	}
}

// allocSlot returns a free slot index, recycling before growing.
func (e *Engine) allocSlot() int32 {
	if n := len(e.free); n > 0 {
		s := e.free[n-1]
		e.free = e.free[:n-1]
		return s
	}
	e.slots = append(e.slots, slotRec{})
	return int32(len(e.slots) - 1)
}

// push adds a heap entry for slot s under the (at, seq) key.
func (e *Engine) push(at Clock, seq uint64, s int32) {
	e.heap = append(e.heap, heapEntry{at: at, seq: seq, slot: s})
	e.siftUp(len(e.heap) - 1)
}

// AtCall schedules cb(arg) to run once at virtual time t. Scheduling in
// the past (t less than Now) runs the event at the current instant
// instead; this keeps callers simple when computing delays that may
// round to zero or below. With a package-level cb and a pointer arg
// this allocates nothing.
func (e *Engine) AtCall(t Clock, cb Callback, arg any) {
	if t < e.now {
		t = e.now
	}
	s := e.allocSlot()
	rec := &e.slots[s]
	rec.cb, rec.arg = cb, arg
	e.push(t, e.seq, s)
	e.seq++
}

// AfterCall schedules cb(arg) to run once d from now.
func (e *Engine) AfterCall(d Clock, cb Callback, arg any) {
	e.AtCall(e.now+d, cb, arg)
}

// dispatchTop fires the minimum entry. A callback's slot returns to the
// free list before the callback runs, so it may schedule freely. A line
// or deadline entry is handed to its owner, which keeps it in the heap
// under a new key, removes it, or (a stale deadline entry) runs nothing
// at all.
func (e *Engine) dispatchTop() {
	ent := e.heap[0]
	e.now = ent.at
	rec := &e.slots[ent.slot]
	switch {
	case rec.line != nil:
		e.count()
		rec.line.deliver()
	case rec.dl != nil:
		if d := rec.dl; d.due() {
			e.count()
			d.cb(d.arg)
		}
	default:
		e.popRoot()
		cb, arg := rec.cb, rec.arg
		rec.cb, rec.arg = nil, nil
		e.free = append(e.free, ent.slot)
		e.count()
		cb(arg)
	}
}

// count records one dispatched event.
func (e *Engine) count() {
	e.dispatched++
	if e.dispatched&(progressStride-1) == 0 {
		e.publishProgress()
	}
}

// publishProgress refreshes the atomic mirror of the progress counters.
func (e *Engine) publishProgress() {
	e.progress.simNs.Store(int64(e.now))
	e.progress.events.Store(e.dispatched)
	e.progress.pending.Store(int64(len(e.heap)))
}

// Progress returns virtual time (ns), total dispatched events, and
// pending timers from the atomic mirror. Unlike Now/Pending it is safe
// to call from other goroutines while the engine runs; values lag the
// dispatch loop by at most progressStride events. It implements
// telemetry.ProgressSource.
func (e *Engine) Progress() (simNs, events, pending int64) {
	return e.progress.simNs.Load(), e.progress.events.Load(), e.progress.pending.Load()
}

// Run dispatches events in order until the queue is empty or virtual time
// would pass until. The clock is left at the time of the last dispatched
// event, or at until if the queue drained earlier.
func (e *Engine) Run(until Clock) {
	for len(e.heap) > 0 && e.heap[0].at <= until {
		e.dispatchTop()
	}
	if e.now < until {
		e.now = until
	}
	e.publishProgress() // exact totals once the loop hands control back
}

// Step dispatches the single next pending event and reports whether one
// was dispatched. Heap entries that come due without an event (a moved
// or stopped Deadline's) are consumed on the way.
func (e *Engine) Step() bool {
	for len(e.heap) > 0 {
		n := e.dispatched
		e.dispatchTop()
		if e.dispatched != n {
			return true
		}
	}
	return false
}

// Pending returns the number of heap entries in O(1): one per callback
// not yet run, one per non-empty Line and one per Deadline that holds an
// entry. A callback leaves the heap when it fires; a stopped or moved
// Deadline keeps its entry until it comes due.
func (e *Engine) Pending() int { return len(e.heap) }

// pendingLinear recounts heap entries by scanning the heap for entries
// whose slot holds a callback (or is owned by a line or deadline) and
// records that entry's position. Tests assert Pending and the position
// index against it.
func (e *Engine) pendingLinear() int {
	n := 0
	for i, ent := range e.heap {
		rec := &e.slots[ent.slot]
		if (rec.cb != nil || rec.line != nil || rec.dl != nil) && int(rec.pos) == i {
			n++
		}
	}
	return n
}
