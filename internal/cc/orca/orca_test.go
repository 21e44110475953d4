package orca

import (
	"math"
	"testing"
	"time"

	"libra/internal/cc"
	"libra/internal/cctest"
	"libra/internal/rlcc"
	"libra/internal/trace"
)

// TestRegistered checks the name Orca reports: its key in the
// controller table.
func TestRegistered(t *testing.T) {
	if got := New(rlcc.OrcaRLConfig(cc.Config{})).Name(); got != "orca" {
		t.Fatalf("Name() = %q, want orca", got)
	}
}

func TestCubicDrivesBetweenDecisions(t *testing.T) {
	o := New(rlcc.OrcaRLConfig(cc.Config{Seed: 1}))
	w0 := o.Window()
	// ACKs without a tick: pure CUBIC slow-start growth.
	now := time.Duration(0)
	for i := 0; i < 10; i++ {
		now += time.Millisecond
		o.OnAck(&cc.Ack{Now: now, RTT: 40 * time.Millisecond, SRTT: 40 * time.Millisecond,
			MinRTT: 40 * time.Millisecond, Acked: 1500})
	}
	if o.Window() <= w0 {
		t.Fatal("CUBIC did not grow between agent decisions")
	}
	if o.Decisions() != 0 {
		t.Fatal("no decisions expected without ticks")
	}
}

func TestAgentRescalesWindow(t *testing.T) {
	o := New(rlcc.OrcaRLConfig(cc.Config{Seed: 2}))
	now := time.Duration(0)
	o.OnTick(now)
	for i := 0; i < 20; i++ {
		now += 10 * time.Millisecond
		o.OnAck(&cc.Ack{Now: now, RTT: 40 * time.Millisecond, SRTT: 40 * time.Millisecond,
			MinRTT: 40 * time.Millisecond, Acked: 1500})
	}
	before := o.Window()
	o.OnTick(now)
	if o.Decisions() != 1 {
		t.Fatalf("decisions %d", o.Decisions())
	}
	after := o.Window()
	// 2^a with a in [-2,2]: rescale bounded by 4x either way.
	if after > before*4+1 || after < before/4-1 {
		t.Fatalf("rescale out of bounds: %v -> %v", before, after)
	}
}

func TestEmptyMTPKeepsWindow(t *testing.T) {
	o := New(rlcc.OrcaRLConfig(cc.Config{Seed: 3}))
	o.OnTick(0)
	w := o.Window()
	o.OnTick(200 * time.Millisecond)
	if o.Window() != w {
		t.Fatal("no-feedback MTP should not rescale")
	}
}

func TestRunsOnEmulatedLink(t *testing.T) {
	res := cctest.RunSingle(cctest.Scenario{
		Capacity: trace.Constant(trace.Mbps(24)),
		MinRTT:   40 * time.Millisecond,
		Buffer:   150000,
		Duration: 20 * time.Second,
	}, New(rlcc.OrcaRLConfig(cc.Config{Seed: 4})))
	if res.Throughput <= 0 {
		t.Fatal("Orca starved")
	}
	if res.Utilization > 1.05 || math.IsNaN(res.Utilization) {
		t.Fatalf("utilization %v", res.Utilization)
	}
}

func TestTrainingStoresTransitions(t *testing.T) {
	cfg := rlcc.OrcaRLConfig(cc.Config{Seed: 5})
	cfg.Train = true
	o := New(cfg)
	now := time.Duration(0)
	o.OnTick(now)
	for tick := 0; tick < 6; tick++ {
		for i := 0; i < 10; i++ {
			now += 10 * time.Millisecond
			o.OnAck(&cc.Ack{Now: now, RTT: 40 * time.Millisecond, SRTT: 40 * time.Millisecond,
				MinRTT: 40 * time.Millisecond, Acked: 1500})
		}
		o.OnTick(now)
	}
	o.Stop(now)
	if o.Agent().BufLen() < 3 {
		t.Fatalf("agent stored %d transitions", o.Agent().BufLen())
	}
}
