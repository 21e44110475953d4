package bbr

import (
	"math/rand"
	"testing"
	"time"

	"libra/internal/cc"
)

// rescanFilter is the windowed-max filter BBR kept before the monotonic
// deque: every sample in the window, the expired prefix evicted, and the
// max rescanned on every update. It is the reference the deque must
// match bit for bit.
type rescanFilter struct {
	samples []bwSample
	max     float64
}

func (r *rescanFilter) update(now time.Duration, sample float64, window time.Duration) {
	r.samples = append(r.samples, bwSample{at: now, bw: sample})
	cut := 0
	for cut < len(r.samples) && now-r.samples[cut].at > window {
		cut++
	}
	r.samples = r.samples[cut:]
	r.max = 0
	for _, s := range r.samples {
		if s.bw > r.max {
			r.max = s.bw
		}
	}
}

func (r *rescanFilter) seed(now time.Duration, rate float64) {
	if rate > 0 {
		r.samples = append(r.samples[:0], bwSample{at: now, bw: rate})
		r.max = rate
	}
}

// Property: on random ACK streams the deque's max equals the rescan's
// after every sample. The streams repeat timestamps and bandwidths, put
// samples exactly on the window edge, take their first sample before any
// RTT is known (the 100 ms default window), let minRTT fall so the
// window shrinks under the samples, and reseed mid-stream.
func TestBWFilterMatchesRescan(t *testing.T) {
	levels := []float64{1e6, 2e6, 2e6, 3e6, 5e6} // repeats force equal-bw ties
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := New(cc.Config{})
		var ref rescanFilter
		now := time.Duration(0)
		rtt := time.Duration(20+rng.Intn(300)) * time.Millisecond
		var delivered int64
		for i := 0; i < 4000; i++ {
			// Whole-millisecond steps and RTTs land samples exactly on the
			// window edge; a quarter of the ACKs repeat the last timestamp.
			if rng.Intn(4) > 0 {
				now += time.Duration(rng.Intn(30)) * time.Millisecond
			}
			if rng.Intn(40) == 0 && rtt > 5*time.Millisecond {
				rtt -= time.Duration(1+rng.Intn(3)) * time.Millisecond
			}
			if rng.Intn(300) == 0 {
				rate := levels[rng.Intn(len(levels))] * rng.Float64()
				ref.seed(now, rate)
				b.SeedRate(rate, now)
				if b.maxBW != ref.max {
					t.Fatalf("seed %d, ACK %d: after SeedRate(%g) maxBW %g, rescan %g", seed, i, rate, b.maxBW, ref.max)
				}
			}
			var rate float64
			switch k := rng.Intn(10); {
			case k == 0: // no rate sample on this ACK
			case k < 6:
				rate = levels[rng.Intn(len(levels))]
			default:
				rate = levels[rng.Intn(len(levels))] * (0.5 + rng.Float64())
			}
			delivered += 1500
			ack := cc.Ack{Now: now, RTT: rtt + time.Duration(rng.Intn(10))*time.Millisecond,
				Acked: 1500, InFlight: 30000, Delivered: delivered, DeliveryRate: rate}
			if rate > 0 {
				ref.update(now, rate, time.Duration(bwWindowRTTs)*b.rtpropOr(100*time.Millisecond))
			}
			b.OnAck(&ack)
			if b.maxBW != ref.max {
				t.Fatalf("seed %d, ACK %d: maxBW %g, rescan %g", seed, i, b.maxBW, ref.max)
			}
		}
	}
}

// TestOnAckSteadyStateAllocs: once the filter's backing array has grown
// to its working size, an ACK allocates nothing. Each run feeds 1000
// ACKs of a falling bandwidth sawtooth, so about 200 samples sit in the
// window and the deque holds up to 100 of them.
func TestOnAckSteadyStateAllocs(t *testing.T) {
	b := New(cc.Config{})
	ack := cc.Ack{RTT: 20 * time.Millisecond, Acked: 1500, InFlight: 30000}
	i := 0
	feed := func() {
		for k := 0; k < 1000; k++ {
			i++
			ack.Now = time.Duration(i) * time.Millisecond
			ack.Delivered += 1500
			ack.DeliveryRate = 1e6 * (2 - float64(i%100)/100)
			b.OnAck(&ack)
		}
	}
	feed() // warm-up: grow the filter to its working size
	if avg := testing.AllocsPerRun(10, feed); avg != 0 {
		t.Fatalf("BBR.OnAck allocates %.0f times per 1000 ACKs in steady state, want 0", avg)
	}
}
