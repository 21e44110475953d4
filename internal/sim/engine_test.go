package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestRunDispatchesInTimeOrder(t *testing.T) {
	e := New(1)
	var got []time.Duration
	for _, d := range []time.Duration{30, 10, 20, 5, 25} {
		d := d * time.Millisecond
		e.At(d, func() { got = append(got, d) })
	}
	e.Run(time.Second)
	want := []time.Duration{5, 10, 20, 25, 30}
	if len(got) != len(want) {
		t.Fatalf("dispatched %d events, want %d", len(got), len(want))
	}
	for i, d := range want {
		if got[i] != d*time.Millisecond {
			t.Errorf("event %d at %v, want %v", i, got[i], d*time.Millisecond)
		}
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(time.Millisecond, func() { order = append(order, i) })
	}
	e.Run(time.Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events fired out of order: %v", order)
		}
	}
}

func TestAfterUsesCurrentTime(t *testing.T) {
	e := New(1)
	var at time.Duration
	e.At(10*time.Millisecond, func() {
		e.After(5*time.Millisecond, func() { at = e.Now() })
	})
	e.Run(time.Second)
	if at != 15*time.Millisecond {
		t.Fatalf("nested After fired at %v, want 15ms", at)
	}
}

func TestCancel(t *testing.T) {
	e := New(1)
	fired := false
	tm := e.At(10*time.Millisecond, func() { fired = true })
	e.Cancel(tm)
	e.Run(time.Second)
	if fired {
		t.Fatal("cancelled event fired")
	}
	// Double-cancel and cancel-after-fire must not panic.
	e.Cancel(tm)
	tm2 := e.At(e.Now()+time.Millisecond, func() {})
	e.Run(e.Now() + time.Second)
	e.Cancel(tm2)
}

func TestRunStopsAtUntil(t *testing.T) {
	e := New(1)
	fired := 0
	e.At(10*time.Millisecond, func() { fired++ })
	e.At(30*time.Millisecond, func() { fired++ })
	e.Run(20 * time.Millisecond)
	if fired != 1 {
		t.Fatalf("fired %d events before until, want 1", fired)
	}
	if e.Now() != 20*time.Millisecond {
		t.Fatalf("clock at %v, want 20ms", e.Now())
	}
	e.Run(time.Second)
	if fired != 2 {
		t.Fatalf("fired %d events total, want 2", fired)
	}
}

func TestSchedulingInPastClampsToNow(t *testing.T) {
	e := New(1)
	var at time.Duration
	e.At(10*time.Millisecond, func() {
		e.At(time.Millisecond, func() { at = e.Now() })
	})
	e.Run(time.Second)
	if at != 10*time.Millisecond {
		t.Fatalf("past event fired at %v, want clamp to 10ms", at)
	}
}

func TestHalt(t *testing.T) {
	e := New(1)
	fired := 0
	e.At(time.Millisecond, func() { fired++; e.Halt() })
	e.At(2*time.Millisecond, func() { fired++ })
	e.Run(time.Second)
	if fired != 1 {
		t.Fatalf("halt did not stop dispatch: fired=%d", fired)
	}
	e.Run(time.Second)
	if fired != 2 {
		t.Fatalf("resume after halt failed: fired=%d", fired)
	}
}

func TestStep(t *testing.T) {
	e := New(1)
	n := 0
	e.At(time.Millisecond, func() { n++ })
	e.At(2*time.Millisecond, func() { n++ })
	if !e.Step() || n != 1 {
		t.Fatalf("first step: n=%d", n)
	}
	if !e.Step() || n != 2 {
		t.Fatalf("second step: n=%d", n)
	}
	if e.Step() {
		t.Fatal("step on empty queue reported an event")
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func(seed int64) []time.Duration {
		e := New(seed)
		var out []time.Duration
		var schedule func()
		schedule = func() {
			if e.Now() > 100*time.Millisecond {
				return
			}
			out = append(out, e.Now())
			e.After(time.Duration(1+e.Rand().Intn(5))*time.Millisecond, schedule)
		}
		e.After(0, schedule)
		e.Run(200 * time.Millisecond)
		return out
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("non-deterministic event count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic timestamps at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: for any batch of events with arbitrary times, dispatch order is
// the sorted order of times (stable by insertion for ties).
func TestQuickDispatchOrderSorted(t *testing.T) {
	f := func(offsets []uint16) bool {
		e := New(7)
		var got []time.Duration
		for _, o := range offsets {
			d := time.Duration(o) * time.Microsecond
			e.At(d, func() { got = append(got, d) })
		}
		e.Run(time.Hour)
		if len(got) != len(offsets) {
			return false
		}
		return sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] })
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: AtCall events interleave with At events in strict
// same-instant FIFO order — the heap swap must not reorder ties.
func TestSameInstantFIFOMixedAPIs(t *testing.T) {
	e := New(1)
	var order []int
	for i := 0; i < 20; i++ {
		i := i
		if i%2 == 0 {
			e.At(time.Millisecond, func() { order = append(order, i) })
		} else {
			e.AtCall(time.Millisecond, func(arg any) { order = append(order, arg.(int)) }, i)
		}
	}
	e.Run(time.Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("mixed-API same-instant events fired out of order: %v", order)
		}
	}
}

// Pending must always agree with an O(n) scan for armed, correctly
// indexed heap entries, across an adversarial schedule/cancel/dispatch
// mix.
func TestPendingMatchesLinearCount(t *testing.T) {
	e := New(3)
	check := func(ctx string) {
		t.Helper()
		if got, want := e.Pending(), e.pendingLinear(); got != want {
			t.Fatalf("%s: Pending() = %d, linear recount = %d", ctx, got, want)
		}
	}
	var timers []Timer
	for i := 0; i < 100; i++ {
		timers = append(timers, e.At(time.Duration(i%17)*time.Millisecond, func() {}))
	}
	check("after scheduling")
	for i := 0; i < len(timers); i += 3 {
		e.Cancel(timers[i])
	}
	check("after cancels")
	for i := 0; i < len(timers); i += 3 {
		e.Cancel(timers[i]) // double-cancel must not double-decrement
	}
	check("after double-cancels")
	for e.Step() {
		check("mid-dispatch")
	}
	if e.Pending() != 0 {
		t.Fatalf("drained engine reports %d pending", e.Pending())
	}
	// Events cancelled from inside a callback.
	var a, b Timer
	a = e.After(time.Millisecond, func() {})
	b = e.After(time.Millisecond, func() {})
	e.After(0, func() { e.Cancel(a); e.Cancel(b) })
	check("before cancel-inside-callback run")
	e.Run(e.Now() + time.Second)
	check("after cancel-inside-callback run")
}

// modelEvent is one pending dispatch in the reference model: a timer, a
// line item or a deadline's heap entry.
type modelEvent struct {
	at   Clock
	seq  uint64
	kind int
	id   int // timer handle id, line item id or deadline index
}

const (
	kindTimer = iota
	kindLine
	kindDeadline
)

// modelLine mirrors one Line: its items sit in the model's pending list
// as ordinary events, but the heap holds one entry while any is pending.
type modelLine struct {
	l     *Line
	delay Clock
	n     int // items pending
}

// modelDeadline mirrors one Deadline: the deadline itself, and the time
// of the heap entry standing for it, which may be stale.
type modelDeadline struct {
	d     *Deadline
	armed bool
	at    Clock
	seq   uint64
	entry bool // holds a heap entry (and an event in the pending list)
	entAt Clock
}

// engineModel mirrors an Engine with a plain slice kept sorted by
// (at, seq), the order the heap must dispatch in. Every timer, line push
// and deadline Set takes its seq when the call is made.
type engineModel struct {
	t       *testing.T
	e       *Engine
	rng     *rand.Rand
	seq     uint64       // mirrors the engine's scheduling sequence
	pending []modelEvent // sorted by (at, seq)
	handles []Timer      // every handle ever issued, indexed by id
	rtoID   int          // the timer re-armed the way a flow's RTO is
	lines   []modelLine
	lineOf  []int // line index of every item ever pushed, by item id
	dls     []modelDeadline
	fires   int // callbacks run
}

func newEngineModel(t *testing.T, seed int64) *engineModel {
	m := &engineModel{t: t, e: New(seed), rng: rand.New(rand.NewSource(seed))}
	// Delays 0 (delivery at the push instant) and 1 ms (ties with timers
	// and deadlines on the millisecond grid) among others.
	for _, d := range []Clock{0, time.Millisecond, 3 * time.Millisecond, 7 * time.Millisecond} {
		m.lines = append(m.lines, modelLine{delay: d,
			l: m.e.NewLine(d, func(arg any) { m.fire(kindLine, arg.(int)) })})
	}
	for i := 0; i < 3; i++ {
		m.dls = append(m.dls, modelDeadline{
			d: m.e.NewDeadline(func(arg any) { m.fire(kindDeadline, arg.(int)) }, i)})
	}
	m.rtoID = m.schedule()
	return m
}

// check asserts that the heap holds exactly the entries the model
// predicts: one per pending timer, per non-empty line and per deadline
// entry, stale or not.
func (m *engineModel) check(ctx string) {
	m.t.Helper()
	want := 0
	for _, p := range m.pending {
		if p.kind != kindLine {
			want++
		}
	}
	for _, l := range m.lines {
		if l.n > 0 {
			want++
		}
	}
	if len(m.e.heap) != m.e.Pending() || m.e.Pending() != want || m.e.pendingLinear() != want {
		m.t.Fatalf("%s: heap %d entries, Pending() %d, linear recount %d, model %d entries",
			ctx, len(m.e.heap), m.e.Pending(), m.e.pendingLinear(), want)
	}
}

// insert adds ev to the sorted pending list.
func (m *engineModel) insert(ev modelEvent) {
	i := sort.Search(len(m.pending), func(i int) bool {
		p := m.pending[i]
		return p.at > ev.at || (p.at == ev.at && p.seq > ev.seq)
	})
	m.pending = append(m.pending, modelEvent{})
	copy(m.pending[i+1:], m.pending[i:])
	m.pending[i] = ev
}

// remove drops the pending event of the given kind and id, if any.
func (m *engineModel) remove(kind, id int) {
	for i, p := range m.pending {
		if p.kind == kind && p.id == id {
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			return
		}
	}
}

// offset draws a coarse time from now: ties are common, and a negative
// offset exercises the clamp to the current instant.
func (m *engineModel) offset() Clock {
	return m.e.Now() + Clock(m.rng.Intn(24)-4)*time.Millisecond
}

// schedule arms one timer through At or AtCall.
func (m *engineModel) schedule() int {
	id := len(m.handles)
	at := m.offset()
	var tm Timer
	if m.rng.Intn(2) == 0 {
		tm = m.e.At(at, func() { m.fire(kindTimer, id) })
	} else {
		tm = m.e.AtCall(at, func(arg any) { m.fire(kindTimer, arg.(int)) }, id)
	}
	if at < m.e.Now() {
		at = m.e.Now()
	}
	m.insert(modelEvent{at: at, seq: m.seq, kind: kindTimer, id: id})
	m.seq++
	m.handles = append(m.handles, tm)
	return id
}

// cancel cancels handle id, which may be pending, fired or cancelled.
func (m *engineModel) cancel(id int) {
	m.e.Cancel(m.handles[id])
	m.remove(kindTimer, id)
}

// rearm cancels the RTO-style timer and arms a fresh one.
func (m *engineModel) rearm() {
	m.cancel(m.rtoID)
	m.rtoID = m.schedule()
}

// push adds one item to a random line.
func (m *engineModel) push() {
	li := m.rng.Intn(len(m.lines))
	ml := &m.lines[li]
	id := len(m.lineOf)
	m.lineOf = append(m.lineOf, li)
	ml.l.Push(id)
	m.insert(modelEvent{at: m.e.Now() + ml.delay, seq: m.seq, kind: kindLine, id: id})
	m.seq++
	ml.n++
}

// setDeadline sets a random deadline. Its entry stays put unless the
// deadline moved earlier than it.
func (m *engineModel) setDeadline() {
	di := m.rng.Intn(len(m.dls))
	dl := &m.dls[di]
	at := m.offset()
	dl.d.Set(at)
	if at < m.e.Now() {
		at = m.e.Now()
	}
	dl.armed, dl.at, dl.seq = true, at, m.seq
	m.seq++
	if dl.entry && at >= dl.entAt {
		return
	}
	m.remove(kindDeadline, di)
	dl.entry, dl.entAt = true, at
	m.insert(modelEvent{at: at, seq: dl.seq, kind: kindDeadline, id: di})
}

// stopDeadline stops a random deadline; its entry stays in the heap.
func (m *engineModel) stopDeadline() {
	dl := &m.dls[m.rng.Intn(len(m.dls))]
	dl.d.Stop()
	dl.armed = false
}

// stale reports whether ev is a deadline entry that is not its
// deadline: the deadline was stopped, or set again since.
func (m *engineModel) stale(ev modelEvent) bool {
	if ev.kind != kindDeadline {
		return false
	}
	dl := &m.dls[ev.id]
	return !dl.armed || ev.seq != dl.seq
}

// drainStale consumes the stale deadline entries due by until at the
// front of the pending list, as the engine does without running a
// callback: each re-arms at its deadline under the deadline's key, or
// drops out.
func (m *engineModel) drainStale(until Clock) {
	for len(m.pending) > 0 && m.pending[0].at <= until && m.stale(m.pending[0]) {
		ev := m.pending[0]
		m.pending = m.pending[1:]
		dl := &m.dls[ev.id]
		dl.entry = false
		if dl.armed {
			dl.entry, dl.entAt = true, dl.at
			m.insert(modelEvent{at: dl.at, seq: dl.seq, kind: kindDeadline, id: ev.id})
		}
	}
}

// mutate applies one random scheduling operation, outside or inside a
// callback.
func (m *engineModel) mutate() {
	switch r := m.rng.Intn(12); {
	case r < 3:
		m.schedule()
	case r < 5:
		m.cancel(m.rng.Intn(len(m.handles)))
	case r < 6:
		m.rearm()
	case r < 9:
		m.push()
	case r < 11:
		m.setDeadline()
	default:
		m.stopDeadline()
	}
}

// op applies one random operation: a scheduling call, a Step or a Run.
func (m *engineModel) op() {
	switch r := m.rng.Intn(10); {
	case r < 8:
		m.mutate()
	case r < 9:
		fires := m.fires
		ok := m.e.Step()
		if m.fires == fires {
			// Nothing but stale entries was left: Step must have drained
			// them and reported no event.
			m.drainStale(Clock(1<<63 - 1))
			if ok || len(m.pending) != 0 {
				m.t.Fatalf("Step() = %v with no callback run, %d model events pending", ok, len(m.pending))
			}
		} else if !ok || m.fires != fires+1 {
			m.t.Fatalf("Step() = %v after %d callbacks, want true after 1", ok, m.fires-fires)
		}
	default:
		until := m.e.Now() + Clock(m.rng.Intn(6))*time.Millisecond
		m.e.Run(until)
		m.drainStale(until)
		if len(m.pending) > 0 && m.pending[0].at <= until {
			m.t.Fatalf("Run(%v) left event %d/%d due at %v", until, m.pending[0].kind, m.pending[0].id, m.pending[0].at)
		}
	}
	m.check("after op")
}

// fire checks a dispatch against the model's first live event, then
// lets the callback schedule, cancel (its own stale handle included),
// re-arm, push, set and stop.
func (m *engineModel) fire(kind, id int) {
	m.t.Helper()
	m.drainStale(m.e.Now())
	if len(m.pending) == 0 {
		m.t.Fatalf("event %d/%d fired with nothing pending in the model", kind, id)
	}
	want := m.pending[0]
	if want.kind != kind || want.id != id || want.at != m.e.Now() {
		m.t.Fatalf("dispatched %d/%d at %v, model expected %d/%d at %v",
			kind, id, m.e.Now(), want.kind, want.id, want.at)
	}
	m.pending = m.pending[1:]
	m.fires++
	switch kind {
	case kindLine:
		m.lines[m.lineOf[id]].n--
	case kindDeadline:
		m.dls[id].armed, m.dls[id].entry = false, false
	}
	m.check("inside callback")
	for k := m.rng.Intn(3); k > 0; k-- {
		if kind == kindTimer && m.rng.Intn(5) == 0 {
			m.cancel(id) // stale: the firing event's own handle
		} else {
			m.mutate()
		}
		m.check("after callback op")
	}
}

// Property: under a random mix of At/AtCall, Cancel (of pending, fired
// and cancelled handles, and from inside callbacks), RTO-style re-arms,
// Line pushes, Deadline sets, re-sets and stops (each from outside and
// inside callbacks, at the current instant and on tied timestamps), Step
// and Run, the engine runs callbacks in the reference model's (at, seq)
// order, with every push and Set keyed by the seq it took when called,
// and its heap holds exactly the entries the model predicts after every
// operation.
func TestEngineMatchesReferenceModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		m := newEngineModel(t, seed)
		for i := 0; i < 2000; i++ {
			m.op()
		}
		m.e.Run(m.e.Now() + time.Hour)
		m.drainStale(m.e.Now())
		m.check("after drain")
		if len(m.pending) != 0 {
			t.Fatalf("seed %d: %d model events never fired", seed, len(m.pending))
		}
	}
}

// A Timer handle must go stale the moment its event fires, even when the
// underlying slot is immediately reused by a new event: cancelling the
// old handle must not kill the new tenant.
func TestCancelStaleHandleAfterSlotReuse(t *testing.T) {
	e := New(1)
	fired := 0
	old := e.At(time.Millisecond, func() { fired++ })
	e.Run(time.Second) // fires; slot returns to the free list
	// The next event recycles the same slot.
	e.At(e.Now()+time.Millisecond, func() { fired++ })
	e.Cancel(old) // stale: must be a no-op against the reused slot
	e.Run(e.Now() + time.Second)
	if fired != 2 {
		t.Fatalf("stale Cancel killed a reused slot's event: fired=%d, want 2", fired)
	}
}

// Re-arming from inside a firing callback must work: the firing event's
// slot is released before the callback runs, and the fresh timer must be
// independently cancellable.
func TestRearmFromInsideCallback(t *testing.T) {
	e := New(1)
	fired := 0
	var tm Timer
	tm = e.After(time.Millisecond, func() {
		fired++
		e.Cancel(tm) // self-cancel after fire: stale, must not disturb anything
		tm = e.After(time.Millisecond, func() { fired++ })
	})
	e.Run(time.Second)
	if fired != 2 {
		t.Fatalf("re-armed callback chain fired %d times, want 2", fired)
	}
	// Re-arm again, then cancel the fresh timer before it fires.
	tm = e.After(time.Millisecond, func() { fired++ })
	e.Cancel(tm)
	e.Run(e.Now() + time.Second)
	if fired != 2 {
		t.Fatalf("cancelled re-armed timer fired anyway: fired=%d", fired)
	}
}

// Property (mirrors link_prop_test.go style): for any batch of events
// with arbitrary times, dispatch order equals the stable sort of the
// batch by time — i.e. FIFO among equal instants, sorted across them.
func TestQuickSameInstantFIFOPreserved(t *testing.T) {
	f := func(offsets []uint8) bool {
		e := New(11)
		type fired struct {
			at time.Duration
			id int
		}
		var got []fired
		for i, o := range offsets {
			id := i
			// Coarse buckets force many same-instant collisions.
			d := time.Duration(o%8) * time.Millisecond
			e.AtCall(d, func(arg any) { got = append(got, fired{e.Now(), arg.(int)}) }, id)
		}
		e.Run(time.Hour)
		if len(got) != len(offsets) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].at < got[i-1].at {
				return false // time order violated
			}
			if got[i].at == got[i-1].at && got[i].id < got[i-1].id {
				return false // FIFO among ties violated
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := New(1)
		for j := 0; j < 1000; j++ {
			e.At(time.Duration(j)*time.Microsecond, func() {})
		}
		e.Run(time.Second)
	}
}
