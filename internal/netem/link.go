package netem

import (
	"math/rand"
	"time"

	"libra/internal/sim"
	"libra/internal/telemetry"
	"libra/internal/trace"
)

// minLinkRate floors the instantaneous trace rate so that serialization
// times stay finite during deep fades (1 kbit/s).
const minLinkRate = 125.0

// Link is a droptail FIFO queue with time-varying capacity, an
// optional iid stochastic loss process at ingress, and a fixed one-way
// propagation delay applied after serialization. Links are the edges
// of a Topology; the telemetry events a link emits carry its label so
// multi-hop traces attribute drops and queueing to the hop that caused
// them.
type Link struct {
	eng    *sim.Engine
	label  string
	cap    trace.Trace
	prop   time.Duration
	buf    int // queue limit in bytes (excluding the packet in service)
	ecn    int
	codel  *CoDel
	loss   float64
	rng    *rand.Rand
	faults FaultInjector
	sink   func(*Packet)
	sinkCb sim.Callback        // fixed wrapper over sink; one alloc per link, zero per packet
	line   *sim.Line           // propagation: every packet without a fault ExtraDelay
	drop   func(*Packet, bool) // stochastic=true when channel loss, false when tail drop
	dup    func(*Packet) *Packet
	queue  []*Packet
	qhead  int
	qByte  int
	busy   bool

	// Statistics; read through DeliveredBytes()/DropStats().
	delivered   int64
	drops       DropStats
	qIntegral   float64 // byte-seconds, for mean queue occupancy
	lastQSample time.Duration

	tracer  telemetry.Tracer
	traceOn bool            // cached Enabled(); keeps the per-packet path branch-cheap
	evBuf   telemetry.Event // reused so enabled-path emits stay alloc-free
}

// DropStats is a point-in-time snapshot of the link's loss and marking
// counters, keyed by reason. Telemetry and tests consume this snapshot
// rather than reaching into individual counters.
type DropStats struct {
	// Tail/Channel/AQM count dropped packets by cause: buffer
	// overflow, the iid stochastic loss process, and CoDel head drops.
	Tail, Channel, AQM int64
	// Blackout and Burst count drops inflicted by the fault injector:
	// link outages and Gilbert-Elliott bursty loss respectively.
	Blackout, Burst int64
	// Bytes is the payload total across all dropped packets.
	Bytes int64
	// Marked counts packets CE-marked (delivered, not dropped).
	Marked int64
}

// Total returns the dropped-packet count across all reasons.
func (d DropStats) Total() int64 { return d.Tail + d.Channel + d.AQM + d.Blackout + d.Burst }

// DropStats returns the current drop/mark counters.
func (l *Link) DropStats() DropStats { return l.drops }

// Label returns the link's telemetry identity ("" for the degenerate
// single-bottleneck link).
func (l *Link) Label() string { return l.label }

// PropDelay returns the link's one-way propagation delay.
func (l *Link) PropDelay() time.Duration { return l.prop }

// Capacity returns the link's rate trace.
func (l *Link) Capacity() trace.Trace { return l.cap }

// DeliveredBytes returns the bytes serialized through the bottleneck.
func (l *Link) DeliveredBytes() int64 { return l.delivered }

// SetTracer wires the telemetry sink for enqueue/drop/queue events.
// Link-level events carry Flow = the owning flow's ID (or -1 for
// queue-occupancy samples emitted by the Network's sampler).
func (l *Link) SetTracer(t telemetry.Tracer) {
	l.tracer = t
	l.traceOn = telemetry.Enabled(t)
}

// emitDrop records a packet drop with its reason.
func (l *Link) emitDrop(p *Packet, reason string) {
	l.evBuf = telemetry.Event{T: int64(l.eng.Now()), Type: telemetry.TypeDrop, Link: l.label,
		Flow: p.Flow.ID, Seq: p.Seq, Bytes: int64(p.Size), Queue: int64(l.qByte), Reason: reason}
	l.tracer.Emit(&l.evBuf)
}

// newLink wires the link spec into the engine; seed drives its
// stochastic loss. sink receives packets after serialization +
// propagation; drop is informed of every dropped packet; dup clones a
// packet for fault-injected duplication.
func newLink(eng *sim.Engine, spec LinkSpec, seed int64, sink func(*Packet), drop func(*Packet, bool), dup func(*Packet) *Packet) *Link {
	l := &Link{
		eng:    eng,
		label:  spec.Label,
		cap:    spec.Capacity,
		prop:   spec.PropDelay,
		buf:    spec.BufferBytes,
		ecn:    spec.ECNThreshold,
		loss:   spec.LossRate,
		faults: spec.Faults,
		rng:    rand.New(rand.NewSource(seed ^ 0x5f3759df)),
		sink:   sink,
		drop:   drop,
		dup:    dup,
	}
	if l.buf <= 0 {
		l.buf = 150 * 1000
	}
	if spec.CoDel {
		l.codel = NewCoDel()
	}
	l.sinkCb = func(arg any) { l.sink(arg.(*Packet)) }
	l.line = eng.NewLine(l.prop, l.sinkCb)
	return l
}

// QueuedBytes returns the current queue occupancy (excluding the packet
// in service).
func (l *Link) QueuedBytes() int { return l.qByte }

// MeanQueueBytes returns the time-averaged queue occupancy up to now.
func (l *Link) MeanQueueBytes(now time.Duration) float64 {
	l.sampleQueue(now)
	if now <= 0 {
		return 0
	}
	return l.qIntegral / now.Seconds()
}

func (l *Link) sampleQueue(now time.Duration) {
	dt := (now - l.lastQSample).Seconds()
	if dt > 0 {
		l.qIntegral += float64(l.qByte) * dt
		l.lastQSample = now
	}
}

// Enqueue offers a packet to the link at the current virtual time.
func (l *Link) Enqueue(p *Packet) {
	now := l.eng.Now()
	if l.faults != nil && !p.injected {
		v := l.faults.Ingress(now, p.Seq, p.Size)
		if v.Drop {
			l.drops.Bytes += int64(p.Size)
			if v.Reason == telemetry.ReasonBlackout {
				l.drops.Blackout++
			} else {
				l.drops.Burst++
			}
			if l.traceOn {
				l.emitDrop(p, v.Reason)
			}
			l.drop(p, true)
			return
		}
		p.ExtraDelay = v.ExtraDelay
		if v.Duplicate && l.dup != nil {
			// Enqueue an independent copy behind the original; the
			// injected flag stops it from re-entering the injector.
			defer l.Enqueue(l.dup(p))
		}
	}
	if l.loss > 0 && l.rng.Float64() < l.loss {
		l.drops.Bytes += int64(p.Size)
		l.drops.Channel++
		if l.traceOn {
			l.emitDrop(p, telemetry.ReasonChannel)
		}
		l.drop(p, true)
		return
	}
	if l.qByte+p.Size > l.buf {
		l.drops.Bytes += int64(p.Size)
		l.drops.Tail++
		if l.traceOn {
			l.emitDrop(p, telemetry.ReasonTail)
		}
		l.drop(p, false)
		return
	}
	l.sampleQueue(now)
	marked := false
	if l.ecn > 0 && l.qByte > l.ecn {
		p.CE = true
		l.drops.Marked++
		marked = true
	}
	l.qByte += p.Size
	if l.traceOn {
		l.evBuf = telemetry.Event{T: int64(now), Type: telemetry.TypeEnqueue, Link: l.label,
			Flow: p.Flow.ID, Seq: p.Seq, Bytes: int64(p.Size), Queue: int64(l.qByte)}
		if marked {
			// CE-marked admissions carry a reason so mark-rate series can
			// be rebuilt from the stream alone.
			l.evBuf.Reason = telemetry.ReasonCE
		}
		l.tracer.Emit(&l.evBuf)
	}
	if l.qhead > 0 && l.qhead*2 >= len(l.queue) {
		// Compact the deque.
		n := copy(l.queue, l.queue[l.qhead:])
		for i := n; i < len(l.queue); i++ {
			l.queue[i] = nil
		}
		l.queue = l.queue[:n]
		l.qhead = 0
	}
	l.queue = append(l.queue, p)
	if !l.busy {
		l.busy = true
		l.serveNext()
	}
}

// serveNext begins serialising the head-of-line packet.
func (l *Link) serveNext() {
	now := l.eng.Now()
	// CoDel head drop: discard packets whose sojourn exceeds the AQM's
	// control law before starting service.
	for l.codel != nil && l.qhead < len(l.queue) {
		p := l.queue[l.qhead]
		if !l.codel.ShouldDrop(now-p.SentAt, now) {
			break
		}
		l.sampleQueue(now)
		l.queue[l.qhead] = nil
		l.qhead++
		l.qByte -= p.Size
		l.drops.Bytes += int64(p.Size)
		l.drops.AQM++
		if l.traceOn {
			l.emitDrop(p, telemetry.ReasonAQM)
		}
		l.drop(p, false)
	}
	if l.qhead >= len(l.queue) {
		l.busy = false
		return
	}
	p := l.queue[l.qhead]
	rate := l.cap.RateAt(now)
	if l.faults != nil {
		rate *= l.faults.RateScale(now)
	}
	if rate < minLinkRate {
		rate = minLinkRate
	}
	tx := time.Duration(float64(p.Size) / rate * float64(time.Second))
	l.eng.AfterCall(tx, serveDone, l)
}

// serveDone completes serialization of the head-of-line packet: it leaves
// the queue, propagation (plus any fault-injected extra delay) starts,
// and the next packet enters service. The head cannot have changed since
// serveNext scheduled us — enqueues append at the tail and head drops
// only happen between services — so the packet is re-read rather than
// captured in a closure. Propagation rides the link's delay line; a
// packet carrying a fault ExtraDelay may overtake or fall behind its
// neighbours, so it keeps a timer of its own.
func serveDone(arg any) {
	l := arg.(*Link)
	p := l.queue[l.qhead]
	l.sampleQueue(l.eng.Now())
	l.queue[l.qhead] = nil
	l.qhead++
	l.qByte -= p.Size
	l.delivered += int64(p.Size)
	if p.ExtraDelay != 0 {
		l.eng.AfterCall(l.prop+p.ExtraDelay, l.sinkCb, p)
	} else {
		l.line.Push(p)
	}
	l.serveNext()
}
