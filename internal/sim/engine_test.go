package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

// nop is a callback that does nothing.
func nop(any) {}

func TestRunDispatchesInTimeOrder(t *testing.T) {
	e := New()
	var got []time.Duration
	for _, d := range []time.Duration{30, 10, 20, 5, 25} {
		d := d * time.Millisecond
		e.AtCall(d, func(any) { got = append(got, d) }, nil)
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
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		e.AtCall(time.Millisecond, func(arg any) { order = append(order, arg.(int)) }, i)
	}
	e.Run(time.Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events fired out of order: %v", order)
		}
	}
}

func TestAfterUsesCurrentTime(t *testing.T) {
	e := New()
	var at time.Duration
	e.AtCall(10*time.Millisecond, func(any) {
		e.AfterCall(5*time.Millisecond, func(any) { at = e.Now() }, nil)
	}, nil)
	e.Run(time.Second)
	if at != 15*time.Millisecond {
		t.Fatalf("nested AfterCall fired at %v, want 15ms", at)
	}
}

// A stopped deadline does not fire, and stopping it again, or after it
// fired, changes nothing: the pacing timer's life at a flow's stop.
func TestDeadlineStop(t *testing.T) {
	e := New()
	fired := 0
	d := e.NewDeadline(func(any) { fired++ }, nil)
	d.Set(10 * time.Millisecond)
	d.Stop()
	d.Stop()
	e.Run(time.Second)
	if fired != 0 || d.Armed() {
		t.Fatalf("stopped deadline fired %d times, armed %v", fired, d.Armed())
	}
	if e.Pending() != 0 {
		t.Fatalf("stopped deadline left %d heap entries once due", e.Pending())
	}
	d.Set(e.Now() + time.Millisecond)
	e.Run(e.Now() + time.Second)
	d.Stop()
	if fired != 1 || d.Armed() {
		t.Fatalf("re-set deadline fired %d times, armed %v after Stop, want 1 and false", fired, d.Armed())
	}
}

func TestRunStopsAtUntil(t *testing.T) {
	e := New()
	fired := 0
	count := func(any) { fired++ }
	e.AtCall(10*time.Millisecond, count, nil)
	e.AtCall(30*time.Millisecond, count, nil)
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
	e := New()
	var at, dlAt time.Duration
	d := e.NewDeadline(func(any) { dlAt = e.Now() }, nil)
	e.AtCall(10*time.Millisecond, func(any) {
		e.AtCall(time.Millisecond, func(any) { at = e.Now() }, nil)
		d.Set(time.Millisecond)
	}, nil)
	e.Run(time.Second)
	if at != 10*time.Millisecond || dlAt != 10*time.Millisecond {
		t.Fatalf("past callback fired at %v, past deadline at %v, want both clamped to 10ms", at, dlAt)
	}
}

func TestStep(t *testing.T) {
	e := New()
	n := 0
	count := func(any) { n++ }
	e.AtCall(time.Millisecond, count, nil)
	e.AtCall(2*time.Millisecond, count, nil)
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
		e := New()
		rng := rand.New(rand.NewSource(seed))
		var out []time.Duration
		var schedule Callback
		schedule = func(any) {
			if e.Now() > 100*time.Millisecond {
				return
			}
			out = append(out, e.Now())
			e.AfterCall(time.Duration(1+rng.Intn(5))*time.Millisecond, schedule, nil)
		}
		e.AfterCall(0, schedule, nil)
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
		e := New()
		var got []time.Duration
		for _, o := range offsets {
			d := time.Duration(o) * time.Microsecond
			e.AtCall(d, func(any) { got = append(got, d) }, nil)
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

// Property: callbacks, line items and deadlines due at one instant fire
// in strict scheduling order, whichever of the three scheduled them.
func TestSameInstantFIFOMixedAPIs(t *testing.T) {
	e := New()
	var order []int
	record := func(arg any) { order = append(order, arg.(int)) }
	line := e.NewLine(time.Millisecond, record)
	for i := 0; i < 21; i++ {
		switch i % 3 {
		case 0:
			e.AtCall(time.Millisecond, record, i)
		case 1:
			line.Push(i)
		default:
			e.NewDeadline(record, i).Set(time.Millisecond)
		}
	}
	e.Run(time.Second)
	if len(order) != 21 {
		t.Fatalf("fired %d of 21 events", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("mixed-API same-instant events fired out of order: %v", order)
		}
	}
}

// Pending must always agree with an O(n) scan for live, correctly
// indexed heap entries, across a schedule/dispatch mix with deadlines
// set, moved and stopped.
func TestPendingMatchesLinearCount(t *testing.T) {
	e := New()
	check := func(ctx string) {
		t.Helper()
		if got, want := e.Pending(), e.pendingLinear(); got != want {
			t.Fatalf("%s: Pending() = %d, linear recount = %d", ctx, got, want)
		}
	}
	var dls []*Deadline
	for i := 0; i < 100; i++ {
		e.AtCall(time.Duration(i%17)*time.Millisecond, nop, nil)
		if i%4 == 0 {
			d := e.NewDeadline(nop, nil)
			d.Set(time.Duration(i%13) * time.Millisecond)
			dls = append(dls, d)
		}
	}
	check("after scheduling")
	for i, d := range dls {
		switch i % 3 {
		case 0:
			d.Stop()
		case 1:
			d.Set(time.Duration(i%5) * time.Millisecond) // earlier or later
		}
	}
	check("after stops and moves")
	for e.Step() {
		check("mid-dispatch")
	}
	if e.Pending() != 0 {
		t.Fatalf("drained engine reports %d pending", e.Pending())
	}
	// Deadlines stopped and set from inside a callback.
	e.AfterCall(0, func(any) {
		dls[0].Set(e.Now() + time.Millisecond)
		dls[1].Set(e.Now() + time.Millisecond)
		dls[1].Stop()
	}, nil)
	check("before set-inside-callback run")
	e.Run(e.Now() + time.Second)
	check("after set-inside-callback run")
}

// modelEvent is one pending dispatch in the reference model: a
// callback, a line item or a deadline's heap entry.
type modelEvent struct {
	at   Clock
	seq  uint64
	kind int
	id   int // callback id, line item id or deadline index
}

const (
	kindCall = iota
	kindLine
	kindDeadline
)

// pacer indexes the deadline driven the way a flow's pacing timer is:
// set only while disarmed (also from inside its own callback) and
// stopped. The other deadlines are set at random, the way an RTO moves.
const pacer = 0

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
// (at, seq), the order the heap must dispatch in. Every callback, line
// push and deadline Set takes its seq when the call is made.
type engineModel struct {
	t       *testing.T
	e       *Engine
	rng     *rand.Rand
	seq     uint64       // mirrors the engine's scheduling sequence
	pending []modelEvent // sorted by (at, seq)
	calls   int          // callbacks ever scheduled: the next one's id
	lines   []modelLine
	lineOf  []int // line index of every item ever pushed, by item id
	dls     []modelDeadline
	fires   int // callbacks run
}

func newEngineModel(t *testing.T, seed int64) *engineModel {
	m := &engineModel{t: t, e: New(), rng: rand.New(rand.NewSource(seed))}
	// Delays 0 (delivery at the push instant) and 1 ms (ties with
	// callbacks and deadlines on the millisecond grid) among others.
	for _, d := range []Clock{0, time.Millisecond, 3 * time.Millisecond, 7 * time.Millisecond} {
		m.lines = append(m.lines, modelLine{delay: d,
			l: m.e.NewLine(d, func(arg any) { m.fire(kindLine, arg.(int)) })})
	}
	for i := 0; i < 3; i++ {
		m.dls = append(m.dls, modelDeadline{
			d: m.e.NewDeadline(func(arg any) { m.fire(kindDeadline, arg.(int)) }, i)})
	}
	m.schedule()
	m.pace()
	return m
}

// check asserts that the heap holds exactly the entries the model
// predicts: one per pending callback, per non-empty line and per
// deadline entry, stale or not; and that every deadline is armed
// exactly when the model says.
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
	for i, dl := range m.dls {
		if dl.d.Armed() != dl.armed {
			m.t.Fatalf("%s: deadline %d Armed() = %v, model %v", ctx, i, dl.d.Armed(), dl.armed)
		}
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

// schedule arms one callback through AtCall or AfterCall.
func (m *engineModel) schedule() {
	id := m.calls
	m.calls++
	at := m.offset()
	cb := func(arg any) { m.fire(kindCall, arg.(int)) }
	if m.rng.Intn(2) == 0 {
		m.e.AtCall(at, cb, id)
	} else {
		m.e.AfterCall(at-m.e.Now(), cb, id)
	}
	if at < m.e.Now() {
		at = m.e.Now()
	}
	m.insert(modelEvent{at: at, seq: m.seq, kind: kindCall, id: id})
	m.seq++
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

// setDeadline sets deadline di at at. Its entry stays put unless the
// deadline moved earlier than it.
func (m *engineModel) setDeadline(di int, at Clock) {
	dl := &m.dls[di]
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

// pace sets the pacing deadline unless it is armed, as a flow's send
// loop does. After a stop, its stale entry may still be queued.
func (m *engineModel) pace() {
	if !m.dls[pacer].armed {
		m.setDeadline(pacer, m.offset())
	}
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
	case r < 6:
		m.push()
	case r < 8:
		m.setDeadline(1+m.rng.Intn(len(m.dls)-1), m.offset())
	case r < 10:
		m.pace()
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
// lets the callback schedule, push, set and stop; the pacing deadline
// re-sets itself half the time, as a flow's send loop does when the
// window or rate still holds it back.
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
	if kind == kindDeadline && id == pacer && m.rng.Intn(2) == 0 {
		m.pace()
		m.check("after pacing re-set")
	}
	for k := m.rng.Intn(3); k > 0; k-- {
		m.mutate()
		m.check("after callback op")
	}
}

// Property: under a random mix of AtCall/AfterCall callbacks, Line
// pushes, Deadline sets, re-sets and stops (a pacing-style deadline set
// only while disarmed, including from inside its own callback and after
// a stop, and RTO-style deadlines moved at random), each from outside and
// inside callbacks, at the current instant and on tied timestamps, Step
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

// Re-arming from inside a firing callback must work: the firing
// callback's slot returns to the free list before it runs, so the
// callback it schedules may reuse the slot, and a deadline set again
// from inside its own callback fires again.
func TestRearmFromInsideCallback(t *testing.T) {
	e := New()
	fired := 0
	e.AfterCall(time.Millisecond, func(any) {
		fired++
		e.AfterCall(time.Millisecond, func(any) { fired++ }, nil)
	}, nil)
	e.Run(time.Second)
	if fired != 2 {
		t.Fatalf("re-armed callback chain fired %d times, want 2", fired)
	}
	var d *Deadline
	d = e.NewDeadline(func(any) {
		fired++
		if fired < 5 {
			d.Set(e.Now() + time.Millisecond)
		}
	}, nil)
	d.Set(e.Now() + time.Millisecond)
	e.Run(e.Now() + time.Second)
	if fired != 5 || d.Armed() {
		t.Fatalf("self-re-setting deadline: fired=%d armed=%v, want 5 and false", fired, d.Armed())
	}
}

// Property (mirrors link_prop_test.go style): for any batch of events
// with arbitrary times, dispatch order equals the stable sort of the
// batch by time — i.e. FIFO among equal instants, sorted across them.
func TestQuickSameInstantFIFOPreserved(t *testing.T) {
	f := func(offsets []uint8) bool {
		e := New()
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
		e := New()
		for j := 0; j < 1000; j++ {
			e.AtCall(time.Duration(j)*time.Microsecond, nop, nil)
		}
		e.Run(time.Second)
	}
}
