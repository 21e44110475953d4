package netem

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"libra/internal/cc"
	"libra/internal/sim"
	"libra/internal/trace"
)

// Property: for any constant-rate overdriving sender, the link never
// delivers more than capacity x time (plus one in-service packet).
func TestQuickLinkNeverExceedsCapacity(t *testing.T) {
	f := func(capRaw, rateRaw uint8, bufRaw uint16) bool {
		capMbps := 1 + float64(capRaw%40)
		sendMbps := 1 + float64(rateRaw%80)
		buf := 10000 + int(bufRaw)%200000
		n := New(Config{
			Capacity:    trace.Constant(trace.Mbps(capMbps)),
			MinRTT:      20 * time.Millisecond,
			BufferBytes: buf,
			Seed:        int64(capRaw)*7 + int64(rateRaw),
		})
		n.AddFlow(cc.FixedRate{R: trace.Mbps(sendMbps)}, 0, 0)
		const d = 3 * time.Second
		n.Run(d)
		limit := trace.Mbps(capMbps)*d.Seconds() + 1500
		return float64(n.Link().DeliveredBytes()) <= limit
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(21))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: queue occupancy never exceeds the configured buffer.
func TestQuickQueueBounded(t *testing.T) {
	f := func(bufRaw uint16) bool {
		buf := 5000 + int(bufRaw)%100000
		n := New(Config{
			Capacity:    trace.Constant(trace.Mbps(5)),
			MinRTT:      20 * time.Millisecond,
			BufferBytes: buf,
			Seed:        int64(bufRaw),
		})
		n.AddFlow(cc.FixedRate{R: trace.Mbps(50)}, 0, 0)
		ok := true
		probe := func(any) {
			if n.Link().QueuedBytes() > buf {
				ok = false
			}
		}
		for i := 1; i <= 20; i++ {
			n.Eng.AfterCall(time.Duration(i)*100*time.Millisecond, probe, nil)
		}
		n.Run(2100 * time.Millisecond)
		return ok
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(22))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// MeanQueueBytes is the time-weighted mean occupancy: on an 8 Mbit/s
// link that serialises a 1000-byte packet per millisecond, three packets
// arrive at 0 and two at 5 ms. A packet counts until its serialisation
// ends, so the link holds 3000, 2000 and 1000 bytes over the first three
// milliseconds and 2000 and 1000 over [5, 7) ms.
func TestMeanQueueBytes(t *testing.T) {
	eng := sim.New()
	l := newLink(eng, LinkSpec{Capacity: trace.Constant(trace.Mbps(8))}, 1,
		func(*Packet) {}, func(*Packet, bool) {}, nil)
	burst := func(arg any) {
		for i := 0; i < arg.(int); i++ {
			l.Enqueue(&Packet{Size: 1000})
		}
	}
	eng.AtCall(0, burst, 3)
	eng.AtCall(5*time.Millisecond, burst, 2)
	for _, c := range []struct {
		at   time.Duration
		want float64 // byte-milliseconds over milliseconds
	}{
		{4 * time.Millisecond, (3000 + 2000 + 1000) / 4.0},
		{10 * time.Millisecond, (3000 + 2000 + 1000 + 2000 + 1000) / 10.0},
	} {
		eng.Run(c.at)
		if got := l.MeanQueueBytes(eng.Now()); math.Abs(got-c.want) > 1e-9*c.want {
			t.Errorf("mean queue at %v = %v bytes, want %v", c.at, got, c.want)
		}
	}
}

// The buffer limit counts the packet in service: with a 3000-byte
// buffer, a burst of four 1000-byte packets admits three, the first of
// which goes straight into service, and tail-drops the fourth.
// QueuedBytes reads 3000 while the first packet is still serialising.
func TestBufferCountsPacketInService(t *testing.T) {
	eng := sim.New()
	var tail, delivered int
	l := newLink(eng, LinkSpec{Capacity: trace.Constant(trace.Mbps(8)), BufferBytes: 3000}, 1,
		func(*Packet) { delivered++ },
		func(_ *Packet, stochastic bool) {
			if !stochastic {
				tail++
			}
		}, nil)
	var queued int
	eng.AtCall(0, func(any) {
		for i := 0; i < 4; i++ {
			l.Enqueue(&Packet{Seq: int64(i), Size: 1000})
		}
	}, nil)
	// 8 Mbit/s serialises a 1000-byte packet in 1 ms.
	eng.AtCall(500*time.Microsecond, func(any) { queued = l.QueuedBytes() }, nil)
	eng.Run(10 * time.Millisecond)
	if tail != 1 || l.DropStats().Tail != 1 {
		t.Fatalf("tail drops = %d (DropStats %d), want 1", tail, l.DropStats().Tail)
	}
	if queued != 3000 {
		t.Fatalf("QueuedBytes with the first packet in service = %d, want 3000", queued)
	}
	if delivered != 3 || l.DeliveredBytes() != 3000 {
		t.Fatalf("delivered %d packets (%d bytes), want 3 (3000)", delivered, l.DeliveredBytes())
	}
}
