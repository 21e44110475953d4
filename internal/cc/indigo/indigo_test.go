package indigo

import (
	"testing"
	"time"

	"libra/internal/cc"
	"libra/internal/cctest"
	"libra/internal/trace"
)

// TestRegistered checks the name Indigo reports: its key in the
// controller table.
func TestRegistered(t *testing.T) {
	if got := New(cc.Config{}).Name(); got != "indigo" {
		t.Fatalf("Name() = %q, want indigo", got)
	}
}

func TestOracleActionMovesTowardTarget(t *testing.T) {
	in := New(cc.Config{})
	in.cwnd = 100 * 1500
	// Target far below cwnd: should choose the halving action.
	idx := in.oracleAction(10 * 1500)
	if actions[idx].mult != 0.5 {
		t.Fatalf("expected halving, got action %d", idx)
	}
	// Target far above: should choose doubling.
	idx = in.oracleAction(500 * 1500)
	if actions[idx].mult != 2 {
		t.Fatalf("expected doubling, got action %d", idx)
	}
	// Target at cwnd: hold.
	idx = in.oracleAction(100 * 1500)
	if actions[idx].mult != 1 || actions[idx].add != 0 {
		t.Fatalf("expected hold, got action %d", idx)
	}
}

func TestConservativeEquilibrium(t *testing.T) {
	// Indigo's oracle steers to 60% of BDP: on a clean link it should
	// deliver clearly less than full capacity but far from zero —
	// matching the paper's Tab. 5 observation (8.2 of 16 Mbps fair
	// share).
	res := cctest.RunSingle(cctest.Scenario{
		Capacity: trace.Constant(trace.Mbps(24)),
		MinRTT:   40 * time.Millisecond,
		Buffer:   240000,
		Duration: 20 * time.Second,
	}, New(cc.Config{}))
	if res.Utilization < 0.3 || res.Utilization > 0.9 {
		t.Fatalf("Indigo utilization %.3f, want conservative mid-range", res.Utilization)
	}
	// Low delay is Indigo's selling point.
	if res.AvgRTT > 60*time.Millisecond {
		t.Fatalf("Indigo avg RTT %v", res.AvgRTT)
	}
}

func TestImitationModelMatchesOracle(t *testing.T) {
	model := TrainImitation(1, 4000)
	in := New(cc.Config{})
	in.UseModel(model)
	// The trained policy should at minimum keep the flow alive and
	// bounded on a simple link.
	res := cctest.RunSingle(cctest.Scenario{
		Capacity: trace.Constant(trace.Mbps(24)),
		MinRTT:   40 * time.Millisecond,
		Buffer:   240000,
		Duration: 15 * time.Second,
	}, in)
	if res.Throughput <= 0 {
		t.Fatal("imitation policy starved the flow")
	}
	if res.Utilization > 1.05 {
		t.Fatalf("utilization %v", res.Utilization)
	}
}

func TestTimeoutHalves(t *testing.T) {
	in := New(cc.Config{})
	in.cwnd = 100 * 1500
	in.OnLoss(&cc.Loss{Timeout: true})
	if in.Window() != 50*1500 {
		t.Fatalf("timeout window %v", in.Window())
	}
}

func TestAdjustsOncePerRTT(t *testing.T) {
	in := New(cc.Config{})
	base := 40 * time.Millisecond
	a := &cc.Ack{Now: base, RTT: base, SRTT: base, MinRTT: base, Acked: 1500, DeliveryRate: 1e6}
	in.OnAck(a)
	w := in.Window()
	a.Now = base + time.Millisecond
	in.OnAck(a)
	if in.Window() != w {
		t.Fatal("Indigo adjusted twice within one RTT")
	}
}
