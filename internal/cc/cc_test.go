package cc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.MSS != 1500 {
		t.Errorf("MSS default %d", c.MSS)
	}
	if c.InitialRate != 150000 {
		t.Errorf("InitialRate default %v", c.InitialRate)
	}
	if c.MinRate <= 0 || c.MaxRate <= c.MinRate {
		t.Errorf("rate bounds %v..%v", c.MinRate, c.MaxRate)
	}
	// Explicit values survive.
	c2 := Config{MSS: 1000, InitialRate: 5, MinRate: 1, MaxRate: 10}.WithDefaults()
	if c2.MSS != 1000 || c2.InitialRate != 5 || c2.MinRate != 1 || c2.MaxRate != 10 {
		t.Errorf("explicit config overwritten: %+v", c2)
	}
}

func TestClampRate(t *testing.T) {
	c := Config{MinRate: 10, MaxRate: 100}.WithDefaults()
	cases := []struct{ in, want float64 }{{5, 10}, {10, 10}, {50, 50}, {100, 100}, {200, 100}}
	for _, cse := range cases {
		if got := c.ClampRate(cse.in); got != cse.want {
			t.Errorf("clamp(%v)=%v want %v", cse.in, got, cse.want)
		}
	}
}

func TestIntervalStatsThroughputAndLoss(t *testing.T) {
	var s IntervalStats
	s.Reset(0)
	s.AddAck(&Ack{Now: 100 * time.Millisecond, RTT: 50 * time.Millisecond, Acked: 3000})
	s.AddAck(&Ack{Now: 200 * time.Millisecond, RTT: 60 * time.Millisecond, Acked: 3000})
	s.AddLoss(&Loss{Lost: 1500})
	s.Close(500 * time.Millisecond)
	if got := s.Throughput(); got != 12000 {
		t.Errorf("throughput %v, want 12000 B/s", got)
	}
	if got := s.LossRate(); math.Abs(got-1500.0/7500) > 1e-12 {
		t.Errorf("loss rate %v", got)
	}
	if got := s.AvgRTT(); got != 55*time.Millisecond {
		t.Errorf("avg RTT %v", got)
	}
}

func TestIntervalStatsGradient(t *testing.T) {
	var s IntervalStats
	s.Reset(0)
	s.AddAck(&Ack{Now: 0, RTT: 100 * time.Millisecond})
	s.AddAck(&Ack{Now: 1 * time.Second, RTT: 150 * time.Millisecond})
	s.Close(time.Second)
	if g := s.RTTGradient(); math.Abs(g-0.05) > 1e-9 {
		t.Errorf("gradient %v, want 0.05", g)
	}
	// Falling RTT gives a negative gradient.
	s.Reset(0)
	s.AddAck(&Ack{Now: 0, RTT: 150 * time.Millisecond})
	s.AddAck(&Ack{Now: 1 * time.Second, RTT: 100 * time.Millisecond})
	if g := s.RTTGradient(); g >= 0 {
		t.Errorf("gradient %v, want negative", g)
	}
}

func TestIntervalStatsEmpty(t *testing.T) {
	var s IntervalStats
	s.Reset(0)
	s.Close(0)
	if s.Throughput() != 0 || s.LossRate() != 0 || s.AvgRTT() != 0 || s.RTTGradient() != 0 {
		t.Error("empty interval should be all-zero")
	}
	if s.HasFeedback() {
		t.Error("empty interval claims feedback")
	}
}

func TestIntervalGradientSingleSample(t *testing.T) {
	var s IntervalStats
	s.Reset(0)
	s.AddAck(&Ack{Now: time.Second, RTT: 100 * time.Millisecond})
	if s.RTTGradient() != 0 {
		t.Error("single sample should give zero gradient")
	}
}

func TestMonitorRoll(t *testing.T) {
	var m Monitor
	m.Current().Reset(0)
	m.OnAck(&Ack{Now: 10 * time.Millisecond, RTT: 40 * time.Millisecond, Acked: 1500})
	iv := m.Roll(100 * time.Millisecond)
	if iv.Acked != 1500 || iv.Elapsed() != 100*time.Millisecond {
		t.Fatalf("rolled interval %+v", iv)
	}
	if m.Current().Acked != 0 || m.Current().Start != 100*time.Millisecond {
		t.Fatal("current interval not reset")
	}
	m.OnLoss(&Loss{Lost: 3000})
	iv2 := m.Roll(200 * time.Millisecond)
	if iv2.Lost != 3000 {
		t.Fatalf("second interval %+v", iv2)
	}
	if m.Previous() != iv2 {
		t.Fatal("Previous should return latest closed interval")
	}
}

// Property: loss rate is always within [0,1] and throughput non-negative,
// whatever feedback arrives.
func TestQuickIntervalBounds(t *testing.T) {
	f := func(acks []uint16, losses []uint16) bool {
		var s IntervalStats
		s.Reset(0)
		now := time.Duration(0)
		for _, a := range acks {
			now += time.Millisecond
			s.AddAck(&Ack{Now: now, RTT: time.Duration(a) * time.Microsecond, Acked: int(a)})
		}
		for _, l := range losses {
			s.AddLoss(&Loss{Lost: int(l)})
		}
		s.Close(now + time.Millisecond)
		lr := s.LossRate()
		return lr >= 0 && lr <= 1 && s.Throughput() >= 0
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
