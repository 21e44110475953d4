package copa

import (
	"testing"
	"time"

	"libra/internal/cc"
	"libra/internal/cctest"
	"libra/internal/trace"
)

// TestRegistered checks the name Copa reports: its key in the
// controller table.
func TestRegistered(t *testing.T) {
	if got := New(cc.Config{}).Name(); got != "copa" {
		t.Fatalf("Name() = %q, want copa", got)
	}
}

func TestLowDelayHighUtilization(t *testing.T) {
	res := cctest.RunSingle(cctest.Scenario{
		Capacity: trace.Constant(trace.Mbps(24)),
		MinRTT:   40 * time.Millisecond,
		Buffer:   600000, // very deep buffer
		Duration: 30 * time.Second,
	}, New(cc.Config{}))
	if res.Utilization < 0.7 {
		t.Fatalf("Copa utilization %.3f", res.Utilization)
	}
	// Copa targets ~1/(delta) packets of queue; delay must stay far
	// below the 200ms the full buffer would add.
	if res.AvgRTT > 80*time.Millisecond {
		t.Fatalf("Copa avg RTT %v: queue not controlled", res.AvgRTT)
	}
}

func TestMovesTowardTarget(t *testing.T) {
	c := New(cc.Config{})
	base := 40 * time.Millisecond
	now := time.Duration(0)
	// Minimal queueing: target rate is huge, cwnd should grow.
	w0 := c.Window()
	for i := 0; i < 50; i++ {
		now += time.Millisecond
		c.OnAck(&cc.Ack{Now: now, RTT: base, SRTT: base, MinRTT: base, Acked: 1500})
	}
	if c.Window() <= w0 {
		t.Fatal("Copa did not grow with empty queue")
	}
	// Heavy queueing: current rate above target, cwnd should shrink.
	// Space ACKs so the RTTstanding window (srtt/2) ages out the old
	// low-RTT samples.
	w1 := c.Window()
	for i := 0; i < 100; i++ {
		now += 10 * time.Millisecond
		c.OnAck(&cc.Ack{Now: now, RTT: 4 * base, SRTT: 4 * base, MinRTT: base, Acked: 1500})
	}
	if c.Window() >= w1 {
		t.Fatal("Copa did not shrink under heavy queueing")
	}
}

func TestVelocityResetsOnDirectionChange(t *testing.T) {
	c := New(cc.Config{})
	base := 40 * time.Millisecond
	now := time.Duration(0)
	for i := 0; i < 400; i++ { // long same-direction run
		now += 10 * time.Millisecond
		c.OnAck(&cc.Ack{Now: now, RTT: base, SRTT: base, MinRTT: base, Acked: 1500})
	}
	if c.velocity <= 1 {
		t.Fatalf("velocity %v never doubled", c.velocity)
	}
	// Direction flip: feed high-RTT samples until the standing window
	// only contains them, at which point direction reverses.
	for i := 0; i < 30; i++ {
		now += 10 * time.Millisecond
		c.OnAck(&cc.Ack{Now: now, RTT: 6 * base, SRTT: 6 * base, MinRTT: base, Acked: 1500})
	}
	if c.direction != -1 {
		t.Fatalf("direction %d after sustained queueing, want -1", c.direction)
	}
	if c.velocity != 1 {
		t.Fatalf("velocity %v after direction change, want 1", c.velocity)
	}
}

func TestTimeoutHalves(t *testing.T) {
	c := New(cc.Config{})
	c.cwnd = 100 * 1500
	c.OnLoss(&cc.Loss{Timeout: true, Lost: 1500})
	if c.Window() != 50*1500 {
		t.Fatalf("timeout window %v", c.Window())
	}
}

func TestSharesWithSelf(t *testing.T) {
	a, b := cctest.RunPair(cctest.Scenario{
		Capacity: trace.Constant(trace.Mbps(24)),
		MinRTT:   40 * time.Millisecond,
		Buffer:   240000,
		Duration: 40 * time.Second,
	}, New(cc.Config{}), New(cc.Config{}), 0)
	ratio := a.Throughput / (a.Throughput + b.Throughput)
	if ratio < 0.3 || ratio > 0.7 {
		t.Fatalf("two Copa flows split %.2f/%.2f", ratio, 1-ratio)
	}
}
