package remy

import (
	"testing"
	"time"

	"libra/internal/cc"
	"libra/internal/cctest"
	"libra/internal/trace"
)

// TestRegistered checks the name Remy reports: its key in the
// controller table.
func TestRegistered(t *testing.T) {
	if got := New(cc.Config{}).Name(); got != "remy" {
		t.Fatalf("Name() = %q, want remy", got)
	}
}

func ack(now, rtt, min time.Duration) *cc.Ack {
	return &cc.Ack{Now: now, RTT: rtt, SRTT: rtt, MinRTT: min, Acked: 1500}
}

func TestGrowsOnEmptyQueue(t *testing.T) {
	r := New(cc.Config{})
	base := 40 * time.Millisecond
	w0 := r.Window()
	now := time.Duration(0)
	for i := 0; i < 5; i++ {
		now += base
		r.OnAck(ack(now, base, base))
	}
	if r.Window() <= w0 {
		t.Fatal("Remy did not grow with rtt_ratio ~1")
	}
}

func TestBacksOffOnBufferbloat(t *testing.T) {
	r := New(cc.Config{})
	base := 40 * time.Millisecond
	r.cwnd = 100 * 1500
	now := time.Duration(0)
	for i := 0; i < 5; i++ {
		now += base
		r.OnAck(ack(now, 4*base, base)) // rtt_ratio = 4
	}
	if r.Window() >= 100*1500 {
		t.Fatal("Remy did not back off under bufferbloat")
	}
	if r.Rate() == 0 {
		t.Fatal("backoff rule should install an intersend pacing cap")
	}
}

func TestRuleOrderFirstMatchWins(t *testing.T) {
	table := []Rule{
		{RTTRatioMin: 0, RTTRatioMax: 10, WindowMultiple: 1, WindowIncrement: 5},
		{RTTRatioMin: 0, RTTRatioMax: 10, WindowMultiple: 0.1, WindowIncrement: 0},
	}
	r := NewWithTable(cc.Config{}, table)
	w0 := r.Window()
	r.OnAck(ack(40*time.Millisecond, 40*time.Millisecond, 40*time.Millisecond))
	if r.Window() != w0+5*1500 {
		t.Fatalf("first rule should win: %v", r.Window())
	}
}

func TestNoMatchingRuleHolds(t *testing.T) {
	r := NewWithTable(cc.Config{}, []Rule{
		{RTTRatioMin: 100, WindowMultiple: 0.5},
	})
	w0 := r.Window()
	r.OnAck(ack(40*time.Millisecond, 40*time.Millisecond, 40*time.Millisecond))
	if r.Window() != w0 {
		t.Fatal("unmatched state should leave the window unchanged")
	}
}

func TestAdjustsOncePerRTT(t *testing.T) {
	r := New(cc.Config{})
	base := 40 * time.Millisecond
	r.OnAck(ack(base, base, base))
	w := r.Window()
	r.OnAck(ack(base+time.Millisecond, base, base))
	if r.Window() != w {
		t.Fatal("Remy adjusted twice within one RTT")
	}
}

func TestWindowFloor(t *testing.T) {
	r := New(cc.Config{})
	r.cwnd = 3 * 1500
	base := 40 * time.Millisecond
	now := time.Duration(0)
	for i := 0; i < 20; i++ {
		now += base
		r.OnAck(ack(now, 10*base, base))
	}
	if r.Window() < 2*1500 {
		t.Fatalf("window %v below floor", r.Window())
	}
}

func TestReasonableOnWiredLink(t *testing.T) {
	res := cctest.RunSingle(cctest.Scenario{
		Capacity: trace.Constant(trace.Mbps(12)),
		MinRTT:   40 * time.Millisecond,
		Buffer:   60000,
		Duration: 20 * time.Second,
	}, New(cc.Config{}))
	if res.Utilization < 0.5 {
		t.Fatalf("Remy wired utilization %.3f", res.Utilization)
	}
}
