package integration

import (
	"testing"
	"time"

	"libra/internal/cc"
	"libra/internal/core"
	"libra/internal/netem"
	"libra/internal/netem/faults"
	"libra/internal/trace"
)

// TestBlackoutThenRecovery is the headline robustness scenario: a total
// 3-second blackout mid-flow. Libra must (a) notice the silence and arm
// the no-ACK watchdog, (b) survive without panicking or stalling, and
// (c) once the link returns, restart its control cycle on the first ACK
// and reach a decided (non-skipped) cycle within two cycles of that
// restart.
func TestBlackoutThenRecovery(t *testing.T) {
	const (
		blackoutStart = 6 * time.Second
		blackoutDur   = 3 * time.Second
		restore       = blackoutStart + blackoutDur
		runFor        = 20 * time.Second
	)
	plan := &faults.Plan{Blackouts: &faults.Blackouts{
		Scheduled: []faults.Window{{Start: faults.Duration(blackoutStart), Dur: faults.Duration(blackoutDur)}},
	}}
	inj, err := faults.New(plan, 7)
	if err != nil {
		t.Fatal(err)
	}
	lb := core.New(core.Config{CC: cc.Config{Seed: 7}, RecordCycles: true})
	n := netem.New(netem.Config{
		Capacity:     trace.Constant(trace.Mbps(16)),
		MinRTT:       40 * time.Millisecond,
		BufferBytes:  100_000,
		Seed:         11,
		Faults:       inj,
		SeriesBucket: time.Second,
	})
	f := n.AddFlow(lb, 0, 0)
	n.Run(runFor)

	if got := n.Link().DropStats().Blackout; got == 0 {
		t.Fatal("blackout window injected no drops")
	}
	if lb.Telemetry().Skipped == 0 {
		t.Fatal("a 3s blackout must produce skipped (no-feedback) cycles")
	}
	if lb.Outage() {
		t.Fatal("outage flag still latched at end of run")
	}

	// Recovery: the first cycle that starts after restoration is the
	// watchdog's restart (triggered by the first post-restore ACK; RTO
	// backoff from the outage can delay that ACK by a few seconds).
	cycles := lb.CycleLog()
	rec := -1
	for i, c := range cycles {
		if c.Start >= restore {
			rec = i
			break
		}
	}
	if rec < 0 {
		t.Fatalf("no control cycle after link restoration (last cycle %+v)", cycles[len(cycles)-1])
	}
	if lag := cycles[rec].Start - restore; lag > 5*time.Second {
		t.Fatalf("first post-restore cycle too late: %v after restoration", lag)
	}
	decided := false
	for i := rec; i < len(cycles) && i < rec+2; i++ {
		if !cycles[i].Skipped {
			decided = true
			break
		}
	}
	if !decided {
		t.Fatalf("no decided cycle within 2 cycles of restoration: %+v", cycles[rec:min(rec+2, len(cycles))])
	}

	// The flow must be moving real traffic again after recovery.
	thr := f.Stats.Throughput
	var tail float64
	for i := 0; i < thr.Len(); i++ {
		if time.Duration(i)*time.Second >= runFor-5*time.Second {
			tail += thr.Sum(i)
		}
	}
	if tail < 1e6/8*5 { // ≥ 1 Mbps averaged over the last 5 s
		t.Fatalf("flow effectively stalled after blackout: %.0f bytes in last 5s", tail)
	}
}

// TestHostilePlanNoStall runs every Libra variant plus the pure-RL
// baseline through the combined "hostile" preset and checks that no
// controller panics or ends the run permanently stalled.
func TestHostilePlanNoStall(t *testing.T) {
	if testing.Short() {
		t.Skip("hostile sweep skipped in -short mode")
	}
	for _, name := range []string{"c-libra", "b-libra", "cl-libra", "cubic", "bbr"} {
		t.Run(name, func(t *testing.T) {
			plan, ok := faults.Preset("hostile")
			if !ok {
				t.Fatal("hostile preset missing")
			}
			inj, err := faults.New(plan, 3)
			if err != nil {
				t.Fatal(err)
			}
			ctrl, err := cc.New(name, cc.Config{Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			n := netem.New(netem.Config{
				Capacity:    trace.Constant(trace.Mbps(24)),
				MinRTT:      30 * time.Millisecond,
				BufferBytes: 120_000,
				Seed:        9,
				Faults:      inj,
			})
			f := n.AddFlow(ctrl, 0, 0)
			n.Run(15 * time.Second)
			if f.Stats.AckedBytes == 0 {
				t.Fatal("flow delivered nothing under the hostile plan")
			}
		})
	}
}

// TestFaultDeterminismEndToEnd re-runs the blackout scenario and checks
// the whole stack — injector, link, flow, controller — reproduces
// byte-identical aggregate results for the same (plan, seed) pair.
func TestFaultDeterminismEndToEnd(t *testing.T) {
	run := func() (int64, int64, uint64) {
		plan, _ := faults.Preset("hostile")
		inj, err := faults.New(plan, 21)
		if err != nil {
			t.Fatal(err)
		}
		lb := core.New(core.Config{CC: cc.Config{Seed: 4}})
		n := netem.New(netem.Config{
			Capacity:    trace.Constant(trace.Mbps(12)),
			MinRTT:      50 * time.Millisecond,
			BufferBytes: 80_000,
			Seed:        6,
			Faults:      inj,
		})
		f := n.AddFlow(lb, 0, 0)
		n.Run(10 * time.Second)
		return f.Stats.AckedBytes, n.Link().DeliveredBytes(), uint64(n.Link().DropStats().Total())
	}
	a1, d1, x1 := run()
	a2, d2, x2 := run()
	if a1 != a2 || d1 != d2 || x1 != x2 {
		t.Fatalf("non-deterministic: (%d,%d,%d) vs (%d,%d,%d)", a1, d1, x1, a2, d2, x2)
	}
}
