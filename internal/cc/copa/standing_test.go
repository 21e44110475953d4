package copa

import (
	"math/rand"
	"testing"
	"time"

	"libra/internal/cc"
)

// rescanWindow is the RTTstanding window Copa kept before the monotonic
// deque: every sample in the window, the expired prefix evicted, and
// the minimum rescanned on every ACK. It is the reference the deque
// must match exactly.
type rescanWindow struct {
	samples []rttSample
}

func (r *rescanWindow) update(now, rtt, win time.Duration) time.Duration {
	r.samples = append(r.samples, rttSample{at: now, rtt: rtt})
	cut := 0
	for cut < len(r.samples) && now-r.samples[cut].at > win {
		cut++
	}
	r.samples = r.samples[cut:]
	standing := rtt
	for _, s := range r.samples {
		if s.rtt < standing {
			standing = s.rtt
		}
	}
	return standing
}

// Property: on random ACK streams the deque's front equals the rescan's
// minimum after every ACK. The streams repeat timestamps and RTTs, and
// SRTT random-walks up and down so the srtt/2 window grows past and
// shrinks under the samples it holds.
func TestStandingMatchesRescan(t *testing.T) {
	levels := []time.Duration{20, 25, 25, 30, 45, 60} // repeats force equal-RTT ties
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := New(cc.Config{})
		var ref rescanWindow
		now := time.Duration(0)
		srtt := time.Duration(20+rng.Intn(200)) * time.Millisecond
		for i := 0; i < 5000; i++ {
			// A quarter of the ACKs repeat the last timestamp; whole
			// milliseconds land samples exactly on the window edge.
			if rng.Intn(4) > 0 {
				now += time.Duration(rng.Intn(8)) * time.Millisecond
			}
			switch k := rng.Intn(20); {
			case k == 0 && srtt > 4*time.Millisecond:
				srtt -= time.Duration(1+rng.Intn(3*int(srtt/time.Millisecond)/4)) * time.Millisecond
			case k == 1:
				srtt += time.Duration(1+rng.Intn(60)) * time.Millisecond
			}
			rtt := levels[rng.Intn(len(levels))] * time.Millisecond
			if rng.Intn(3) == 0 {
				rtt += time.Duration(rng.Intn(5000)) * time.Microsecond
			}
			want := ref.update(now, rtt, srtt/2)
			c.OnAck(&cc.Ack{Now: now, RTT: rtt, SRTT: srtt, Acked: 1500, InFlight: 30000})
			if got := c.standWin[0].rtt; got != want {
				t.Fatalf("seed %d, ACK %d: standing RTT %v, rescan %v", seed, i, got, want)
			}
		}
	}
}

// TestOnAckSteadyStateAllocs: once the window's backing array has grown
// to its working size, an ACK allocates nothing. Each run feeds 1000
// ACKs of a rising RTT sawtooth, so the deque holds every sample of the
// 50 ms window on the rising edge.
func TestOnAckSteadyStateAllocs(t *testing.T) {
	c := New(cc.Config{})
	ack := cc.Ack{SRTT: 100 * time.Millisecond, Acked: 1500, InFlight: 30000}
	i := 0
	feed := func() {
		for k := 0; k < 1000; k++ {
			i++
			ack.Now = time.Duration(i) * time.Millisecond
			ack.RTT = 40*time.Millisecond + time.Duration(i%100)*100*time.Microsecond
			c.OnAck(&ack)
		}
	}
	feed() // warm-up: grow the window to its working size
	if avg := testing.AllocsPerRun(10, feed); avg != 0 {
		t.Fatalf("Copa.OnAck allocates %.0f times per 1000 ACKs in steady state, want 0", avg)
	}
}
