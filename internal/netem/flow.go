package netem

import (
	"time"

	"libra/internal/cc"
	"libra/internal/sim"
)

// reorderThreshold is the duplicate-ACK style gap (in packets) beyond
// which an outstanding packet is declared lost.
const reorderThreshold = 3

// rtoMin and rtoMax bound the retransmission-timeout estimate.
const (
	rtoMin = 200 * time.Millisecond
	rtoMax = 10 * time.Second
)

type pktState struct {
	size            int
	sentAt          time.Duration
	deliveredAtSend int64
	done            bool
}

// FlowStats aggregates the per-flow measurements the experiments consume.
type FlowStats struct {
	AckedBytes int64
	LostBytes  int64
	SentBytes  int64
	RTTSum     time.Duration
	RTTCount   int64
	MinRTT     time.Duration
	MaxRTT     time.Duration
	// Throughput buckets acknowledged bytes over time.
	Throughput *Series
	// Delay buckets RTT samples (milliseconds) over time.
	Delay *Series
	// ComputeNs is the wall-clock nanoseconds spent inside the
	// controller's decision code — the overhead metric of Fig. 2(c)/12.
	ComputeNs int64
	// Active is the duration the flow spent sending.
	Active time.Duration
}

// AvgRTT returns the mean RTT over the flow's lifetime.
func (s *FlowStats) AvgRTT() time.Duration {
	if s.RTTCount == 0 {
		return 0
	}
	return s.RTTSum / time.Duration(s.RTTCount)
}

// AvgThroughput returns acknowledged bytes/sec over the active period.
func (s *FlowStats) AvgThroughput() float64 {
	if s.Active <= 0 {
		return 0
	}
	return float64(s.AckedBytes) / s.Active.Seconds()
}

// LossRate returns lost/(lost+acked) bytes.
func (s *FlowStats) LossRate() float64 {
	tot := s.AckedBytes + s.LostBytes
	if tot == 0 {
		return 0
	}
	return float64(s.LostBytes) / float64(tot)
}

// Flow is one sender/receiver pair attached to a topology route; its
// packets traverse every link of the route in order and ACKs return
// after the route's ACK delay on an uncongested reverse path.
type Flow struct {
	ID    int
	topo  *Topology
	route *Route
	ctrl  cc.Controller
	mss   int

	startAt, stopAt time.Duration
	running         bool
	ticker          cc.Ticker // non-nil when ctrl is tick-driven

	// Application limiting: when appRate > 0 the source produces data
	// at that rate (token bucket with a small burst allowance) instead
	// of being an infinite backlog — a streaming-style workload.
	appRate   float64
	appTokens float64
	appLast   time.Duration

	// inflight[head:] is the live window: one entry per sequence number
	// from headSeq up to nextSeq. Resolved entries at the front are
	// skipped by advancing head; sendPacket compacts the dead prefix
	// once it is at least half the array.
	nextSeq       int64
	headSeq       int64
	inflight      []pktState
	head          int
	inflightBytes int

	delivered int64
	srtt      time.Duration
	rttvar    time.Duration
	minRTT    time.Duration

	nextSend   time.Duration
	paceTimer  *sim.Deadline
	rtoTimer   *sim.Deadline
	rtoBackoff int

	ackBuf  cc.Ack
	lossBuf cc.Loss

	Stats FlowStats
}

// Controller returns the flow's congestion controller.
func (f *Flow) Controller() cc.Controller { return f.ctrl }

// Route returns the route the flow's packets traverse.
func (f *Flow) Route() *Route { return f.route }

// SRTT returns the current smoothed RTT estimate.
func (f *Flow) SRTT() time.Duration { return f.srtt }

// MinRTT returns the minimum RTT observed so far.
func (f *Flow) MinRTT() time.Duration { return f.minRTT }

// InFlight returns the bytes currently unacknowledged.
func (f *Flow) InFlight() int { return f.inflightBytes }

// SetAppRate makes the flow application-limited: the source produces
// bytes at rate (bytes/sec) rather than an infinite backlog. Zero
// restores bulk behaviour. Call before the flow starts.
func (f *Flow) SetAppRate(rate float64) {
	f.appRate = rate
	f.appTokens = float64(2 * f.mss)
}

// appAllows reports whether the application has produced enough data
// for one more packet, replenishing the token bucket.
func (f *Flow) appAllows(now time.Duration) bool {
	if f.appRate <= 0 {
		return true
	}
	if now > f.appLast {
		f.appTokens += f.appRate * (now - f.appLast).Seconds()
		// Cap the burst at 100 ms of data so idle periods do not turn
		// into line-rate bursts.
		if burst := f.appRate * 0.1; f.appTokens > burst {
			f.appTokens = burst
		}
		f.appLast = now
	}
	return f.appTokens >= float64(f.mss)
}

func (f *Flow) start() {
	f.running = true
	f.nextSend = f.topo.Eng.Now()
	if tk, ok := f.ctrl.(cc.Ticker); ok {
		f.ticker = tk
		f.runTicker()
	}
	f.trySend()
}

// tickCb drives per-MI controller ticks through the engine's pooled
// callback path: re-arming each tick allocates nothing.
func tickCb(arg any) { arg.(*Flow).runTicker() }

func (f *Flow) runTicker() {
	if !f.running {
		return
	}
	t0 := nanotime()
	d := f.ticker.OnTick(f.topo.Eng.Now())
	f.Stats.ComputeNs += nanotime() - t0
	f.trySend()
	if d > 0 {
		f.topo.Eng.AfterCall(d, tickCb, f)
	}
}

func (f *Flow) stop() {
	if !f.running {
		return
	}
	f.running = false
	f.Stats.Active = f.topo.Eng.Now() - f.startAt
	f.paceTimer.Stop()
	f.rtoTimer.Stop()
	if st, ok := f.ctrl.(cc.Stopper); ok {
		st.Stop(f.topo.Eng.Now())
	}
}

// trySend transmits as many packets as the pacing rate and congestion
// window currently allow and re-arms the pacing timer.
func (f *Flow) trySend() {
	if !f.running {
		return
	}
	now := f.topo.Eng.Now()
	for {
		cwnd := f.ctrl.Window()
		// Anti-deadlock: always allow one packet when nothing is in
		// flight, whatever the window says.
		if float64(f.inflightBytes+f.mss) > cwnd && f.inflightBytes > 0 {
			return // window-limited; ACKs will reopen
		}
		rate := f.ctrl.Rate()
		if rate > 0 && now < f.nextSend {
			f.armPacing(f.nextSend)
			return
		}
		if !f.appAllows(now) {
			// Application-limited: wake when enough data accumulated.
			deficit := float64(f.mss) - f.appTokens
			wait := time.Duration(deficit / f.appRate * float64(time.Second))
			if wait < time.Millisecond {
				wait = time.Millisecond
			}
			f.armPacing(now + wait)
			return
		}
		f.sendPacket(now)
		if f.appRate > 0 {
			f.appTokens -= float64(f.mss)
		}
		if rate > 0 {
			gap := time.Duration(float64(f.mss) / rate * float64(time.Second))
			if gap <= 0 || gap > time.Hour { // NaN/Inf/zero guard
				gap = time.Microsecond
			}
			if f.nextSend < now {
				f.nextSend = now
			}
			f.nextSend += gap
		}
	}
}

// paceCb fires the pacing timer.
func paceCb(arg any) { arg.(*Flow).trySend() }

// armPacing sets the pacing timer unless it is already set: an earlier
// wake-up stands, and the send loop re-arms it when it fires.
func (f *Flow) armPacing(at time.Duration) {
	if !f.paceTimer.Armed() {
		f.paceTimer.Set(at)
	}
}

func (f *Flow) sendPacket(now time.Duration) {
	p := f.topo.pool.get()
	p.Flow = f
	p.Seq = f.nextSeq
	p.Size = f.mss
	p.SentAt = now
	p.DeliveredAtSend = f.delivered
	f.nextSeq++
	if f.head > 0 && f.head*2 >= len(f.inflight) {
		n := copy(f.inflight, f.inflight[f.head:])
		f.inflight = f.inflight[:n]
		f.head = 0
	}
	f.inflight = append(f.inflight, pktState{size: p.Size, sentAt: now, deliveredAtSend: p.DeliveredAtSend})
	f.inflightBytes += p.Size
	f.Stats.SentBytes += int64(p.Size)
	f.armRTO(now)
	f.route.links[0].Enqueue(p)
}

// onDelivered runs when a data packet reaches the receiver; the ACK
// returns on the route's delay line after the reverse propagation delay.
// The packet itself rides the reverse path as the ACK carrier — no
// separate ACK struct, no boxing — and is returned to the pool when the
// sender processes it.
func (f *Flow) onDelivered(p *Packet) {
	f.route.ack.Push(p)
}

// ackCb delivers the returning ACK to its sender.
func ackCb(arg any) {
	p := arg.(*Packet)
	p.Flow.onAck(p)
}

func (f *Flow) onAck(p *Packet) {
	seq, size, sentAt, deliveredAtSend, ce := p.Seq, p.Size, p.SentAt, p.DeliveredAtSend, p.CE
	f.topo.pool.put(p)
	now := f.topo.Eng.Now()
	win := f.inflight[f.head:]
	idx := int(seq - f.headSeq)
	if idx < 0 || idx >= len(win) || win[idx].done {
		return // duplicate or already resolved
	}
	win[idx].done = true
	f.inflightBytes -= size
	f.delivered += int64(size)
	f.rtoBackoff = 0

	rtt := now - sentAt
	f.updateRTT(rtt)
	f.Stats.AckedBytes += int64(size)
	f.Stats.RTTSum += rtt
	f.Stats.RTTCount++
	if f.Stats.MinRTT == 0 || rtt < f.Stats.MinRTT {
		f.Stats.MinRTT = rtt
	}
	if rtt > f.Stats.MaxRTT {
		f.Stats.MaxRTT = rtt
	}
	if f.Stats.Throughput != nil {
		f.Stats.Throughput.Add(now, float64(size))
	}
	if f.Stats.Delay != nil {
		f.Stats.Delay.Add(now, float64(rtt)/float64(time.Millisecond))
	}

	// Gap-based loss detection: outstanding packets more than
	// reorderThreshold behind the acknowledged one are lost.
	lost := 0
	var lostSentAt time.Duration
	for i := 0; i < idx-reorderThreshold; i++ {
		if !win[i].done {
			win[i].done = true
			f.inflightBytes -= win[i].size
			if lost == 0 {
				lostSentAt = win[i].sentAt
			}
			lost += win[i].size
		}
	}
	f.popResolved()

	var rateSample float64
	if el := (now - sentAt).Seconds(); el > 0 {
		rateSample = float64(f.delivered-deliveredAtSend) / el
	}
	f.ackBuf = cc.Ack{
		Now:          now,
		RTT:          rtt,
		SRTT:         f.srtt,
		MinRTT:       f.minRTT,
		Acked:        size,
		InFlight:     f.inflightBytes,
		Delivered:    f.delivered,
		DeliveryRate: rateSample,
		ECE:          ce,
	}
	t0 := nanotime()
	f.ctrl.OnAck(&f.ackBuf)
	if lost > 0 {
		f.Stats.LostBytes += int64(lost)
		f.lossBuf = cc.Loss{Now: now, SentAt: lostSentAt, Lost: lost, InFlight: f.inflightBytes}
		f.ctrl.OnLoss(&f.lossBuf)
	}
	f.Stats.ComputeNs += nanotime() - t0

	f.rearmRTO(now)
	f.trySend()
}

// popResolved advances the window head past resolved entries.
func (f *Flow) popResolved() {
	i := f.head
	for i < len(f.inflight) && f.inflight[i].done {
		i++
	}
	f.headSeq += int64(i - f.head)
	f.head = i
}

func (f *Flow) updateRTT(rtt time.Duration) {
	if f.minRTT == 0 || rtt < f.minRTT {
		f.minRTT = rtt
	}
	if f.srtt == 0 {
		f.srtt = rtt
		f.rttvar = rtt / 2
		return
	}
	diff := f.srtt - rtt
	if diff < 0 {
		diff = -diff
	}
	f.rttvar = (3*f.rttvar + diff) / 4
	f.srtt = (7*f.srtt + rtt) / 8
}

func (f *Flow) rto() time.Duration {
	rto := f.srtt + 4*f.rttvar
	if rto < rtoMin {
		rto = rtoMin
	}
	for i := 0; i < f.rtoBackoff && rto < rtoMax; i++ {
		rto *= 2
	}
	if rto > rtoMax {
		rto = rtoMax
	}
	return rto
}

// rtoCb fires the retransmission timeout.
func rtoCb(arg any) { arg.(*Flow).onRTO() }

// armRTO starts the retransmission timeout unless it is already running.
func (f *Flow) armRTO(now time.Duration) {
	if !f.rtoTimer.Armed() {
		f.rtoTimer.Set(now + f.rto())
	}
}

// rearmRTO restarts the timeout after an ACK, or stops it once nothing
// is in flight. The deadline moves lazily, so the per-ACK restart does
// not touch the engine's heap.
func (f *Flow) rearmRTO(now time.Duration) {
	if f.inflightBytes > 0 {
		f.rtoTimer.Set(now + f.rto())
	} else {
		f.rtoTimer.Stop()
	}
}

func (f *Flow) onRTO() {
	if !f.running && f.inflightBytes == 0 {
		return
	}
	now := f.topo.Eng.Now()
	lost := 0
	var lostSentAt time.Duration
	for _, p := range f.inflight[f.head:] {
		if !p.done {
			if lost == 0 {
				lostSentAt = p.sentAt
			}
			lost += p.size
		}
	}
	f.inflight = f.inflight[:0]
	f.head = 0
	f.headSeq = f.nextSeq
	f.inflightBytes = 0
	if lost == 0 {
		return
	}
	f.Stats.LostBytes += int64(lost)
	f.rtoBackoff++
	f.lossBuf = cc.Loss{Now: now, SentAt: lostSentAt, Lost: lost, InFlight: 0, Timeout: true}
	t0 := nanotime()
	f.ctrl.OnLoss(&f.lossBuf)
	f.Stats.ComputeNs += nanotime() - t0
	f.trySend()
}

// clockEpoch anchors nanotime's monotonic readings.
var clockEpoch = time.Now()

// nanotime reads the monotonic clock for compute-cost accounting. Since
// clockEpoch carries a monotonic reading, time.Since reads only that
// clock; time.Now would read the wall clock as well.
func nanotime() int64 { return int64(time.Since(clockEpoch)) }
