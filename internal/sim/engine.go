// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and a priority queue of events.
// Events scheduled for the same instant fire in scheduling order, which,
// together with a seeded random source, makes every simulation run exactly
// reproducible for a given seed.
//
// # Hot path
//
// The queue is an inlined, value-typed 4-ary min-heap of small (24-byte)
// entries — no per-event pointer, no interface boxing, no container/heap
// dispatch. Event payloads (the function to run) live in a generation-
// counted slot table recycled through a free list, so steady-state
// scheduling and dispatch allocate nothing. Each armed slot records its
// entry's heap index, so Cancel removes the entry in O(log n). Two
// scheduling APIs share this machinery:
//
//   - At/After take a closure. Convenient, but the closure itself is an
//     allocation at the call site — use on setup and other cold paths.
//   - AtCall/AfterCall take a fixed Callback plus an argument. When the
//     callback is a package-level function and the argument is a pointer,
//     scheduling is allocation-free.
//
// Two primitives stand for many events with one heap entry each while
// keeping their exact (at, seq) order: a Line (fixed-delay FIFO, the
// per-packet propagation and ACK paths) and a Deadline (a timer re-set
// far more often than it fires, a flow's RTO).
package sim

import (
	"math/rand"
	"sync/atomic"
	"time"
)

// Clock is a point in virtual time, measured from the start of the
// simulation. It is a time.Duration so that the full arithmetic and
// formatting toolbox of the standard library applies.
type Clock = time.Duration

// Callback is a fixed function scheduled with AtCall/AfterCall. The
// argument it was scheduled with is passed back at dispatch. Storing a
// pointer in arg does not allocate; package-level Callback values do not
// allocate either, which is what keeps the per-packet paths alloc-free.
type Callback func(arg any)

// heapEntry is one queue position: ordering key plus a handle into the
// slot table. Entries are moved by value during sifts; the payload never
// moves.
type heapEntry struct {
	at   Clock
	seq  uint64 // tie-breaker: FIFO among same-instant events
	slot int32
}

// slotRec holds one scheduled event's payload. gen increments every time
// the slot is released (fired or cancelled), so stale Timer handles are
// recognised in O(1) even after slot reuse. pos is the armed event's
// index in the heap, kept current by every sift. A Line or a Deadline
// owns one slot for its whole life, marked by line or dl; such a slot
// is never released, so no Timer handle ever matches it.
type slotRec struct {
	gen  uint32
	pos  int32
	fn   func()
	cb   Callback
	arg  any
	line *Line
	dl   *Deadline
}

// Engine is a single-threaded discrete-event simulator. The zero value is
// not usable; construct with New.
type Engine struct {
	now        Clock
	seq        uint64
	heap       []heapEntry
	slots      []slotRec
	free       []int32 // recycled slot indices
	rng        *rand.Rand
	halted     bool
	dispatched int64 // total events fired, counted on the hot path

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

// New returns an engine whose random source is seeded with seed.
func New(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() Clock { return e.now }

// Rand returns the engine's deterministic random source. All stochastic
// components of a simulation should draw from this source (or from sources
// derived from it) so that runs are reproducible.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Timer identifies a scheduled event so that it can be cancelled. The
// zero Timer is valid and refers to nothing; generation counting makes a
// stale Timer (fired, cancelled, or slot since reused) a safe no-op.
type Timer struct {
	slot int32 // slot index + 1; 0 means "no timer"
	gen  uint32
}

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

// siftDown restores heap order from entry i (the root or a hole) down.
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

// removeAt deletes heap entry i: the last entry fills the hole and sifts
// whichever way restores order.
func (e *Engine) removeAt(i int) {
	n := len(e.heap) - 1
	e.heap[i] = e.heap[n]
	e.heap = e.heap[:n]
	if i == n {
		return
	}
	if i > 0 && less(&e.heap[i], &e.heap[(i-1)>>2]) {
		e.siftUp(i)
	} else {
		e.siftDown(i)
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

// release retires slot s once its event fired or was cancelled: the
// generation bump stales every Timer handle to it.
func (e *Engine) release(s int32) {
	rec := &e.slots[s]
	rec.gen++
	rec.fn, rec.cb, rec.arg = nil, nil, nil
	e.free = append(e.free, s)
}

// push adds a heap entry for slot s under the (at, seq) key.
func (e *Engine) push(at Clock, seq uint64, s int32) {
	e.heap = append(e.heap, heapEntry{at: at, seq: seq, slot: s})
	e.siftUp(len(e.heap) - 1)
}

// schedule arms one event. Exactly one of fn/cb is non-nil.
func (e *Engine) schedule(t Clock, fn func(), cb Callback, arg any) Timer {
	if t < e.now {
		t = e.now
	}
	s := e.allocSlot()
	rec := &e.slots[s]
	rec.fn, rec.cb, rec.arg = fn, cb, arg
	e.push(t, e.seq, s)
	e.seq++
	return Timer{slot: s + 1, gen: rec.gen}
}

// At schedules fn to run at virtual time t. Scheduling in the past (t less
// than Now) runs the event at the current instant instead; this keeps
// callers simple when computing delays that may round to zero or below.
// The closure is a call-site allocation — hot paths use AtCall.
func (e *Engine) At(t Clock, fn func()) Timer {
	return e.schedule(t, fn, nil, nil)
}

// After schedules fn to run d from now.
func (e *Engine) After(d Clock, fn func()) Timer {
	return e.schedule(e.now+d, fn, nil, nil)
}

// AtCall schedules cb(arg) at virtual time t (clamped to now like At).
// With a package-level cb and a pointer arg this allocates nothing.
func (e *Engine) AtCall(t Clock, cb Callback, arg any) Timer {
	return e.schedule(t, nil, cb, arg)
}

// AfterCall schedules cb(arg) to run d from now.
func (e *Engine) AfterCall(d Clock, cb Callback, arg any) Timer {
	return e.schedule(e.now+d, nil, cb, arg)
}

// Cancel removes a scheduled event and its heap entry in O(log n).
// Cancelling the zero Timer, an already-fired timer, an already-cancelled
// timer, or a timer whose slot has since been reused is a no-op (the
// generation check catches all four).
func (e *Engine) Cancel(t Timer) {
	if t.slot == 0 {
		return
	}
	s := t.slot - 1
	if e.slots[s].gen != t.gen {
		return
	}
	e.removeAt(int(e.slots[s].pos))
	e.release(s)
}

// Halt stops Run before the next event is dispatched.
func (e *Engine) Halt() { e.halted = true }

// dispatchTop fires the minimum entry. A timer's slot is released before
// the payload runs, so a callback may re-arm freely; its own Timer handle
// is already stale by then. A line or deadline entry is handed to its
// owner, which keeps it at the root under a new key, removes it, or (a
// stale deadline entry) runs nothing at all.
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
		e.removeAt(0)
		fn, cb, arg := rec.fn, rec.cb, rec.arg
		e.release(ent.slot)
		e.count()
		if cb != nil {
			cb(arg)
		} else {
			fn()
		}
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
	e.halted = false
	for len(e.heap) > 0 && !e.halted && e.heap[0].at <= until {
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

// Pending returns the number of heap entries in O(1): one per scheduled
// (non-cancelled) timer, one per non-empty Line and one per Deadline
// that holds an entry. Cancelled and fired timers leave the heap at
// once; a stopped or moved Deadline keeps its entry until it comes due.
func (e *Engine) Pending() int { return len(e.heap) }

// pendingLinear recounts heap entries by scanning the heap for entries
// whose slot is armed (or owned by a line or deadline) and records that
// entry's position. Tests assert Pending and the position index against
// it.
func (e *Engine) pendingLinear() int {
	n := 0
	for i, ent := range e.heap {
		rec := &e.slots[ent.slot]
		if (rec.fn != nil || rec.cb != nil || rec.line != nil || rec.dl != nil) && int(rec.pos) == i {
			n++
		}
	}
	return n
}
