package vivace

import (
	"testing"
	"time"

	"libra/internal/cc"
	"libra/internal/cctest"
	"libra/internal/trace"
)

// TestRegistered checks that both controller-table entries, vivace and
// proteus, build from a zero Config into a controller that can send: a
// positive pacing rate and window, and the monitor-interval tick.
func TestRegistered(t *testing.T) {
	for _, c := range []cc.Controller{New(cc.Config{}), NewProteus(cc.Config{})} {
		if c.Rate() <= 0 || c.Window() <= 0 {
			t.Fatalf("%s: rate %v, window %v, want both > 0", c.Name(), c.Rate(), c.Window())
		}
		if _, ok := c.(cc.Ticker); !ok {
			t.Fatalf("%s does not implement cc.Ticker", c.Name())
		}
	}
}

func TestNamesDiffer(t *testing.T) {
	if New(cc.Config{}).Name() != "vivace" || NewProteus(cc.Config{}).Name() != "proteus" {
		t.Fatal("controller names wrong")
	}
}

func TestConvergesNearCapacity(t *testing.T) {
	res := cctest.RunSingle(cctest.Scenario{
		Capacity: trace.Constant(trace.Mbps(24)),
		MinRTT:   40 * time.Millisecond,
		Buffer:   120000,
		Duration: 40 * time.Second,
	}, New(cc.Config{}))
	if res.Utilization < 0.7 {
		t.Fatalf("Vivace utilization %.3f, want >0.7", res.Utilization)
	}
	// The utility's latency term should keep the queue mostly drained.
	if res.AvgRTT > 90*time.Millisecond {
		t.Fatalf("Vivace avg RTT %v", res.AvgRTT)
	}
}

func TestRobustToStochasticLoss(t *testing.T) {
	// PCC's headline result: random loss below the utility's cut-off
	// does not collapse throughput the way it does for loss-based TCP.
	res := cctest.RunSingle(cctest.Scenario{
		Capacity: trace.Constant(trace.Mbps(24)),
		MinRTT:   40 * time.Millisecond,
		Buffer:   120000,
		Loss:     0.03,
		Duration: 60 * time.Second,
	}, New(cc.Config{}))
	if res.Utilization < 0.5 {
		t.Fatalf("Vivace with 3%% loss: %.3f utilization", res.Utilization)
	}
}

func TestTrialPairStraddlesBaseRate(t *testing.T) {
	v := New(cc.Config{})
	v.starting = false
	v.rate = 1e6
	v.beginTrial()
	if len(v.plan) != 2 {
		t.Fatalf("planned %d MIs, want 2", len(v.plan))
	}
	a, b := v.plan[0].rate, v.plan[1].rate
	if (a > v.rate) == (b > v.rate) {
		t.Fatalf("trial rates %v and %v must straddle base %v", a, b, v.rate)
	}
	if v.plan[0].tag != tagTrialA || v.plan[1].tag != tagTrialB {
		t.Fatal("trial tags wrong")
	}
}

func TestMoveFollowsGradient(t *testing.T) {
	v := New(cc.Config{})
	v.rate = 1e6
	v.sign = 1
	v.move(10, 5) // +eps MI scored higher -> increase
	if v.rate <= 1e6 {
		t.Fatal("positive gradient should raise the rate")
	}
	v2 := New(cc.Config{})
	v2.rate = 1e6
	v2.sign = 1
	v2.move(5, 10)
	if v2.rate >= 1e6 {
		t.Fatal("negative gradient should lower the rate")
	}
	// Sign flip inverts attribution.
	v3 := New(cc.Config{})
	v3.rate = 1e6
	v3.sign = -1
	v3.move(10, 5) // A was the slower MI here
	if v3.rate >= 1e6 {
		t.Fatal("sign=-1: higher utility at lower rate should decrease")
	}
}

func TestChangeBoundaryCapsStep(t *testing.T) {
	v := New(cc.Config{})
	v.rate = 1e6
	v.sign = 1
	v.move(1e9, 0) // absurd gradient; first step bounded by omega0 = 5%
	if v.rate > 1e6*1.051 {
		t.Fatalf("step exceeded change boundary: %v", v.rate)
	}
}

func TestConsecutiveStepsAmplify(t *testing.T) {
	v := New(cc.Config{})
	v.rate = 1e6
	var steps []float64
	for i := 0; i < 4; i++ {
		r0 := v.rate
		v.sign = 1
		v.move(1e9, 0)
		steps = append(steps, v.rate-r0)
	}
	if !(steps[3] > steps[0]) {
		t.Fatalf("change boundary should grow on consecutive same-direction moves: %v", steps)
	}
}

func TestStartingDoublesAppliedRate(t *testing.T) {
	v := New(cc.Config{InitialRate: 1e5})
	v.OnTick(0)
	r0 := v.Rate()
	v.OnTick(100 * time.Millisecond)
	if v.Rate() != 2*r0 {
		t.Fatalf("second starting MI rate %v, want double %v", v.Rate(), 2*r0)
	}
}

func TestStartingNeedsTwoStrikesToExit(t *testing.T) {
	v := New(cc.Config{})
	v.startUSeen = true
	v.prevStartU = 100
	low := cc.TaggedInterval{Tag: tagStarting}
	low.Stats.Reset(0)
	low.Stats.AddAck(&cc.Ack{Now: 10 * time.Millisecond, RTT: 40 * time.Millisecond, Acked: 1500})
	low.Stats.AppliedRate = 4e6
	low.Stats.Close(100 * time.Millisecond)

	v.finalize(&low)
	if !v.starting {
		t.Fatal("one bad MI ended the starting phase")
	}
	v.prevStartU = 100 // finalize above overwrote nothing (strike path)
	v.finalize(&low)
	if v.starting {
		t.Fatal("two consecutive bad MIs should end the starting phase")
	}
	if v.rate != 2e6 {
		t.Fatalf("exit rate %v, want half the striking MI's rate", v.rate)
	}
}

func TestEmptyTrialMIAbandonsPair(t *testing.T) {
	v := New(cc.Config{})
	v.starting = false
	v.awaiting = true
	v.trialSeen[0] = true
	empty := cc.TaggedInterval{Tag: tagTrialB}
	empty.Stats.Reset(0)
	empty.Stats.Close(100 * time.Millisecond)
	v.finalize(&empty)
	if v.awaiting || v.trialSeen[0] {
		t.Fatal("empty trial MI should abandon the pair")
	}
}

func TestMILenEnforcesMinimumPackets(t *testing.T) {
	v := New(cc.Config{})
	v.srtt = 20 * time.Millisecond
	v.applied = 15000 // 10 packets/sec -> 5 packets take 500ms
	if mi := v.miLen(); mi != maxMI {
		t.Fatalf("MI %v, want cap %v for tiny rates", mi, maxMI)
	}
	v.applied = 1.5e6
	if mi := v.miLen(); mi != 20*time.Millisecond {
		t.Fatalf("MI %v, want srtt when packets plentiful", mi)
	}
}

func TestProteusSmootherThanVivace(t *testing.T) {
	run := func(ctrl cc.Controller) float64 {
		res := cctest.RunSingle(cctest.Scenario{
			Capacity: trace.NewLTE(trace.LTEWalking, 30*time.Second, 7),
			MinRTT:   30 * time.Millisecond,
			Buffer:   150000,
			Duration: 30 * time.Second,
		}, ctrl)
		return res.AvgRTT.Seconds()
	}
	vd := run(New(cc.Config{}))
	pd := run(NewProteus(cc.Config{}))
	// Proteus's deviation penalty should not produce *more* delay.
	if pd > vd*1.5 {
		t.Fatalf("Proteus delay %.3fs much worse than Vivace %.3fs", pd, vd)
	}
}
