package illinois

import (
	"testing"
	"time"

	"libra/internal/cc"
	"libra/internal/cctest"
	"libra/internal/trace"
)

// TestRegistered checks the name Illinois reports: its key in the
// controller table.
func TestRegistered(t *testing.T) {
	if got := New(cc.Config{}).Name(); got != "illinois" {
		t.Fatalf("Name() = %q, want illinois", got)
	}
}

func feed(il *Illinois, n int, rtt, min time.Duration) {
	now := time.Duration(0)
	for i := 0; i < n; i++ {
		now += 10 * time.Millisecond
		il.OnAck(&cc.Ack{Now: now, RTT: rtt, SRTT: rtt, MinRTT: min, Acked: 1500})
	}
}

func TestAlphaHighWhenQueueEmpty(t *testing.T) {
	il := New(cc.Config{})
	il.ssthresh = 0
	base := 40 * time.Millisecond
	// Build a delay history that includes congestion, then return to
	// empty queue.
	feed(il, 50, 4*base, base)
	feed(il, 200, base, base)
	if a := il.Alpha(); a < alphaMax/2 {
		t.Fatalf("alpha %v with empty queue, want near %v", a, alphaMax)
	}
}

func TestAlphaDropsUnderQueueing(t *testing.T) {
	il := New(cc.Config{})
	il.ssthresh = 0
	base := 40 * time.Millisecond
	feed(il, 50, 4*base, base) // near max delay
	if a := il.Alpha(); a > 2 {
		t.Fatalf("alpha %v near max delay, want small", a)
	}
}

func TestBetaRampsWithDelay(t *testing.T) {
	il := New(cc.Config{})
	base := 40 * time.Millisecond
	feed(il, 50, 4*base, base)
	highBeta := il.Beta()
	feed(il, 300, base, base)
	lowBeta := il.Beta()
	if !(lowBeta < highBeta) {
		t.Fatalf("beta should shrink as delay empties: %v -> %v", highBeta, lowBeta)
	}
	if highBeta > betaMax+1e-9 || lowBeta < betaMin-1e-9 {
		t.Fatalf("beta out of [%v, %v]: %v %v", betaMin, betaMax, lowBeta, highBeta)
	}
}

func TestLossAppliesAdaptiveBeta(t *testing.T) {
	il := New(cc.Config{})
	il.ssthresh = 0
	base := 40 * time.Millisecond
	feed(il, 200, base, base) // low delay -> beta near betaMin
	il.cwnd = 100 * 1500
	il.OnLoss(&cc.Loss{Now: 10 * time.Second, Lost: 1500})
	// With beta ~ 1/8 the window should stay near 87.5 MSS, far above
	// the Reno half.
	if il.Window() < 75*1500 {
		t.Fatalf("low-delay loss cut window to %v; expected gentle decrease", il.Window())
	}
}

func TestFillsLink(t *testing.T) {
	res := cctest.RunSingle(cctest.Scenario{
		Capacity: trace.Constant(trace.Mbps(24)),
		MinRTT:   40 * time.Millisecond,
		Buffer:   120000,
		Duration: 30 * time.Second,
	}, New(cc.Config{}))
	if res.Utilization < 0.8 {
		t.Fatalf("Illinois utilization %.3f", res.Utilization)
	}
}

func TestTimeoutCollapse(t *testing.T) {
	il := New(cc.Config{})
	il.cwnd = 100 * 1500
	il.OnLoss(&cc.Loss{Timeout: true, Lost: 1500})
	if il.Window() != 2*1500 {
		t.Fatalf("timeout window %v", il.Window())
	}
}
