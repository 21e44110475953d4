package sim

// A Line and a Deadline each own one slot and hold at most one heap
// entry, however many events they stand for, and dispatch in exactly the
// (at, seq) order the equivalent AfterCall/AtCall calls would: every
// push or Set reserves the next scheduling sequence at the moment it is
// made, as that call would have, and the single entry takes a reserved
// key when it moves rather than a fresh one.

// Line is a fixed-delay FIFO: each Push hands its argument to the line's
// callback delay later. Because the delay is fixed and pushes happen in
// time order, the pending items are already sorted by (at, seq), so only
// the head needs a heap entry; when it fires, the entry takes the next
// head's key, the one that item reserved at its push.
type Line struct {
	e     *Engine
	delay Clock
	cb    Callback
	slot  int32
	q     []lineItem // q[head:] are pending, in (at, seq) order
	head  int
}

type lineItem struct {
	at  Clock
	seq uint64
	arg any
}

// NewLine returns an empty delay line that runs cb(arg) delay after
// each Push(arg). A negative delay runs at the push instant, as AfterCall
// would.
func (e *Engine) NewLine(delay Clock, cb Callback) *Line {
	if delay < 0 {
		delay = 0
	}
	l := &Line{e: e, delay: delay, cb: cb, slot: e.allocSlot()}
	e.slots[l.slot].line = l
	return l
}

// Push schedules cb(arg) at Now()+delay. It consumes one scheduling
// sequence, exactly as AfterCall(delay, cb, arg) would, and allocates
// nothing once the line's buffer has grown to its working size.
func (l *Line) Push(arg any) {
	e := l.e
	if l.head > 0 && l.head*2 >= len(l.q) {
		n := copy(l.q, l.q[l.head:])
		clear(l.q[n:])
		l.q = l.q[:n]
		l.head = 0
	}
	at := e.now + l.delay
	l.q = append(l.q, lineItem{at: at, seq: e.seq, arg: arg})
	if len(l.q)-l.head == 1 {
		e.push(at, e.seq, l.slot)
	}
	e.seq++
}

// deliver hands the head item to the callback; the line's entry is the
// heap's root. The entry takes the next head's key and sifts down, or
// leaves the heap with the last item, before the callback runs, so a
// callback that pushes onto the same line finds the entry in place. An
// emptied line restarts at the front of its buffer, which keeps a line
// that rarely holds more than one item (a short hop) off Push's
// compaction path.
func (l *Line) deliver() {
	e := l.e
	arg := l.q[l.head].arg
	l.q[l.head].arg = nil
	l.head++
	if l.head < len(l.q) {
		next := &l.q[l.head]
		e.heap[0].at, e.heap[0].seq = next.at, next.seq
		e.siftDown(0)
	} else {
		l.q, l.head = l.q[:0], 0
		e.popRoot()
	}
	l.cb(arg)
}

// Deadline is a re-settable one-shot timer: a flow's retransmission
// timeout, which moves on every ACK, and its pacing timer, which is set
// only while disarmed and stopped when the flow stops. Set replaces the
// deadline and Stop disarms it, but neither touches the heap unless the
// deadline moves earlier than its entry: the entry stays where it is and,
// when it comes due, either fires (it is the deadline), re-arms at the
// current deadline under the key Set reserved for it, or leaves the heap
// (the deadline was stopped). A stale entry is not an event: no callback
// runs and the dispatch count does not move.
type Deadline struct {
	e      *Engine
	cb     Callback
	arg    any
	slot   int32
	at     Clock  // the deadline, while armed
	seq    uint64 // the key Set reserved for it
	armed  bool
	queued bool // the slot's entry is in the heap
}

// NewDeadline returns a disarmed deadline that runs cb(arg) when it
// comes due.
func (e *Engine) NewDeadline(cb Callback, arg any) *Deadline {
	d := &Deadline{e: e, cb: cb, arg: arg, slot: e.allocSlot()}
	e.slots[d.slot].dl = d
	return d
}

// Set arms the deadline at t (clamped to now), replacing any earlier
// setting. It consumes one scheduling sequence, as AtCall(t, ...) would.
func (d *Deadline) Set(t Clock) {
	e := d.e
	if t < e.now {
		t = e.now
	}
	d.at, d.seq, d.armed = t, e.seq, true
	e.seq++
	if !d.queued {
		d.queued = true
		e.push(t, d.seq, d.slot)
		return
	}
	// The entry must never come due after the deadline. A later or equal
	// time leaves it in place (its older seq orders it first at a tie);
	// an earlier one moves it, which only ever sifts it towards the root.
	i := int(e.slots[d.slot].pos)
	if t < e.heap[i].at {
		e.heap[i].at, e.heap[i].seq = t, d.seq
		e.siftUp(i)
	}
}

// Stop disarms the deadline without consuming a scheduling sequence.
func (d *Deadline) Stop() { d.armed = false }

// Armed reports whether the deadline is set and has not fired.
func (d *Deadline) Armed() bool { return d.armed }

// due handles the deadline's entry at the heap's root and reports
// whether it is the deadline itself, which the caller then fires. The
// entry is the deadline only when its key is the one the last Set
// reserved: comparing times alone would fire a deadline that was re-set
// to the same instant ahead of the events scheduled in between.
func (d *Deadline) due() bool {
	e := d.e
	top := &e.heap[0]
	switch {
	case d.armed && top.seq == d.seq:
		d.armed, d.queued = false, false
		e.popRoot()
		return true
	case d.armed:
		top.at, top.seq = d.at, d.seq
		e.siftDown(0)
	default:
		d.queued = false
		e.popRoot()
	}
	return false
}
