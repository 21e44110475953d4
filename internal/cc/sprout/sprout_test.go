package sprout

import (
	"testing"
	"time"

	"libra/internal/cc"
	"libra/internal/cctest"
	"libra/internal/trace"
)

// TestRegistered checks the name Sprout reports: its key in the
// controller table.
func TestRegistered(t *testing.T) {
	if got := New(cc.Config{}).Name(); got != "sprout" {
		t.Fatalf("Name() = %q, want sprout", got)
	}
}

func TestTickCadence(t *testing.T) {
	s := New(cc.Config{})
	if d := s.OnTick(0); d != tickInterval {
		t.Fatalf("tick returned %v", d)
	}
}

func TestWindowTracksDeliveredRate(t *testing.T) {
	s := New(cc.Config{})
	now := time.Duration(0)
	s.OnTick(now)
	// 1 MB/s delivered steadily.
	for i := 0; i < 200; i++ {
		now += tickInterval
		s.OnAck(&cc.Ack{Now: now, Acked: 20000})
		s.OnTick(now)
	}
	// Window should approximate rate * budget = 1e6 * 0.1 = 100 KB
	// (plus the 2-MSS probe allowance), shrunk by the cautious margin.
	w := s.Window()
	if w < 30000 || w > 130000 {
		t.Fatalf("window %v for 1MB/s link, want ~0.1s of data", w)
	}
}

func TestCautiousUnderVariance(t *testing.T) {
	mk := func(noisy bool) float64 {
		s := New(cc.Config{})
		now := time.Duration(0)
		s.OnTick(now)
		for i := 0; i < 400; i++ {
			now += tickInterval
			bytes := 20000
			if noisy && i%2 == 0 {
				bytes = 2000
			} else if noisy {
				bytes = 38000
			}
			s.OnAck(&cc.Ack{Now: now, Acked: bytes})
			s.OnTick(now)
		}
		return s.Window()
	}
	steady, noisy := mk(false), mk(true)
	if noisy >= steady {
		t.Fatalf("noisy-link window %v not below steady %v despite equal mean", noisy, steady)
	}
}

func TestLowDelayOnVariableCellularLink(t *testing.T) {
	res := cctest.RunSingle(cctest.Scenario{
		Capacity: trace.NewLTE(trace.LTEWalking, 30*time.Second, 2),
		MinRTT:   30 * time.Millisecond,
		Buffer:   450000,
		Duration: 30 * time.Second,
	}, New(cc.Config{}))
	// Sprout's whole point: bounded delay on cellular links.
	if res.AvgRTT > 30*time.Millisecond+2*DelayBudget {
		t.Fatalf("Sprout avg RTT %v exceeds budget", res.AvgRTT)
	}
	if res.Utilization < 0.3 {
		t.Fatalf("Sprout utilization %.3f too conservative", res.Utilization)
	}
}

func TestTimeoutResets(t *testing.T) {
	s := New(cc.Config{})
	s.cwnd = 100000
	s.OnLoss(&cc.Loss{Timeout: true})
	if s.Window() != 2*1500 {
		t.Fatalf("timeout window %v", s.Window())
	}
}
