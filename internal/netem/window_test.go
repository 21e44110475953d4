package netem_test

import (
	"testing"
	"time"

	"libra/internal/cc"
	"libra/internal/cc/bbr"
	"libra/internal/cc/cubic"
	"libra/internal/netem"
	"libra/internal/netem/faults"
	"libra/internal/trace"
)

// windowChecked wraps a controller and checks its flow's in-flight
// window each time the flow reports an ACK or a loss (RTOs included):
// by then the flow has resolved the ACK and advanced its window.
type windowChecked struct {
	cc.Controller
	t    *testing.T
	f    *netem.Flow
	acks int
	rtos int
}

func (w *windowChecked) OnAck(a *cc.Ack) {
	w.Controller.OnAck(a)
	w.acks++
	w.check("ACK")
}

func (w *windowChecked) OnLoss(l *cc.Loss) {
	w.Controller.OnLoss(l)
	if l.Timeout {
		w.rtos++
	}
	w.check("loss")
}

func (w *windowChecked) check(ctx string) {
	w.t.Helper()
	if err := w.f.CheckWindow(); err != nil {
		w.t.Fatalf("flow %d (%s) after %s: %v", w.f.ID, w.Name(), ctx, err)
	}
}

// flowTotals are the deterministic FlowStats fields.
type flowTotals struct {
	Acked, Lost, Sent int64
	RTTSum            time.Duration
	RTTCount          int64
	MinRTT, MaxRTT    time.Duration
	Active            time.Duration
}

func totals(s *netem.FlowStats) flowTotals {
	return flowTotals{s.AckedBytes, s.LostBytes, s.SentBytes, s.RTTSum, s.RTTCount, s.MinRTT, s.MaxRTT, s.Active}
}

// TestInflightWindowUnderFaults runs a CUBIC and a BBR flow through the
// reorder, dup and blackout fault presets, which produce out-of-order,
// duplicate and missing ACKs and RTOs. The window invariants hold after
// every ACK and loss, and the per-flow totals equal those of the
// shift-on-every-ACK window the head offset replaced, for the same seed.
func TestInflightWindowUnderFaults(t *testing.T) {
	// Recorded from the shifting window at seed 7: {acked, lost, sent,
	// RTT sum, RTT count, min RTT, max RTT, active}, CUBIC then BBR.
	want := map[string][2]flowTotals{
		"reorder": {
			{1476000, 57000, 1540500, 65673625932, 984, 41000000, 119000000, 15000000000},
			{18400500, 1230000, 19740000, 849029806000, 12267, 41000000, 79999528, 14000000000},
		},
		"dup": {
			{2143500, 331500, 2478000, 90029201458, 1429, 41000000, 79000000, 15000000000},
			{19689000, 991500, 20799000, 969069270639, 13126, 41000000, 79999529, 14000000000},
		},
		"blackout": {
			{3348000, 348000, 3705000, 133176851940, 2232, 41000000, 79000000, 15000000000},
			{13462500, 955500, 14515500, 622110358038, 8975, 41000000, 79999196, 14000000000},
		},
	}
	rtos := 0
	for _, preset := range []string{"reorder", "dup", "blackout"} {
		plan, ok := faults.Preset(preset)
		if !ok {
			t.Fatalf("no %s preset", preset)
		}
		n := netem.New(netem.Config{
			Capacity:    trace.Constant(trace.Mbps(12)),
			MinRTT:      40 * time.Millisecond,
			BufferBytes: 60_000,
			Faults:      faults.MustNew(plan, 7),
			Seed:        7,
		})
		ctrls := []*windowChecked{
			{Controller: cubic.New(cc.Config{}), t: t},
			{Controller: bbr.New(cc.Config{}), t: t},
		}
		for i, c := range ctrls {
			c.f = n.AddFlow(c, time.Duration(i)*time.Second, 0)
		}
		n.Run(15 * time.Second)
		for i, c := range ctrls {
			if err := c.f.CheckWindow(); err != nil {
				t.Fatalf("%s: flow %d at the end: %v", preset, i, err)
			}
			got := totals(&c.f.Stats)
			t.Logf("%s flow %d: %d ACKs, %d RTOs", preset, i, c.acks, c.rtos)
			rtos += c.rtos
			if got != want[preset][i] {
				t.Errorf("%s flow %d: totals %+v, want %+v", preset, i, got, want[preset][i])
			}
		}
	}
	if rtos == 0 {
		t.Fatal("no flow timed out: the RTO path went unchecked")
	}
}
