package rlcc

import (
	"math"
	"testing"
	"time"

	"libra/internal/cc"
	"libra/internal/cctest"
	"libra/internal/trace"
)

// TestRegistered checks that a controller reports the name it was
// built under, which the controller table keys it by.
func TestRegistered(t *testing.T) {
	if got := New("aurora", AuroraConfig(cc.Config{})).Name(); got != "aurora" {
		t.Fatalf("Name() = %q, want aurora", got)
	}
}

func TestFeatureWidths(t *testing.T) {
	if FeatRTTAndMin.Width() != 2 || FeatSendRate.Width() != 1 {
		t.Fatal("feature widths wrong")
	}
	if StateWidth(BaselineStateSpace()) != 6 {
		t.Fatalf("baseline width %d, want 6", StateWidth(BaselineStateSpace()))
	}
	if StateWidth(LibraStateSpace()) != 4 {
		t.Fatalf("libra width %d, want 4", StateWidth(LibraStateSpace()))
	}
	for f := FeatAckGapEWMA; f <= FeatDeliveryRate; f++ {
		if f.String() == "unknown" {
			t.Fatalf("feature %d unnamed", f)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.History != 5 || c.Scale != 5 || c.W1 != 1 || c.W2 != 0.5 || c.W3 != 10 {
		t.Fatalf("defaults %+v", c)
	}
	if (Config{Action: MIMDOrca}).WithDefaults().Scale != 2 {
		t.Fatal("Orca mode should default to scale 2")
	}
	if c.ObsDim() != 4*5 {
		t.Fatalf("obs dim %d", c.ObsDim())
	}
}

func TestActionModes(t *testing.T) {
	mk := func(mode ActionMode, scale float64) *Controller {
		return New("t", Config{Action: mode, Scale: scale, Seed: 1}.WithDefaults())
	}
	// AIAD: +a Mbps.
	r := mk(AIAD, 5)
	r.rate = 1e6
	r.applyAction(2)
	if math.Abs(r.rate-(1e6+2e6/8)) > 1 {
		t.Fatalf("AIAD rate %v", r.rate)
	}
	// MIMD Aurora.
	r = mk(MIMDAurora, 5)
	r.rate = 1e6
	r.applyAction(4)
	if math.Abs(r.rate-1e6*1.1) > 1 {
		t.Fatalf("Aurora up rate %v", r.rate)
	}
	r.rate = 1e6
	r.applyAction(-4)
	if math.Abs(r.rate-1e6/1.1) > 1 {
		t.Fatalf("Aurora down rate %v", r.rate)
	}
	// MIMD Orca: 2^a.
	r = mk(MIMDOrca, 2)
	r.rate = 1e6
	r.applyAction(2)
	if math.Abs(r.rate-4e6) > 1 {
		t.Fatalf("Orca rate %v", r.rate)
	}
}

func TestRewardComponents(t *testing.T) {
	r := New("t", Config{Seed: 1})
	var iv cc.IntervalStats
	iv.Reset(0)
	iv.AddAck(&cc.Ack{Now: 50 * time.Millisecond, RTT: 50 * time.Millisecond, Acked: 125000})
	iv.Close(time.Second) // 125kB/s throughput
	base := r.reward(&iv)
	// First interval: thr normalised by the fixed RewardXMax reference
	// (25 MB/s), dMin = delay so the w2 term is 0.5, no loss.
	want := 125000.0/25e6 - 0.5
	if math.Abs(base-want) > 1e-9 {
		t.Fatalf("reward %v, want %v", base, want)
	}
	// Loss reduces reward by w3 * lossRate.
	var iv2 cc.IntervalStats
	iv2.Reset(0)
	iv2.AddAck(&cc.Ack{Now: 50 * time.Millisecond, RTT: 50 * time.Millisecond, Acked: 75000})
	iv2.AddLoss(&cc.Loss{Lost: 25000})
	iv2.Close(time.Second)
	withLoss := r.reward(&iv2)
	if withLoss >= base {
		t.Fatal("lossy interval should score lower")
	}
	// Ablation: disabling the loss term removes the penalty.
	r2 := New("t", Config{Seed: 1, DisableLossTerm: true})
	r2.xMax, r2.dMin = r.xMax, r.dMin
	if r2.reward(&iv2) <= withLoss {
		t.Fatal("DisableLossTerm should raise the lossy reward")
	}
}

func TestDeltaRewardShaping(t *testing.T) {
	mk := func(useDelta bool) *Controller {
		return New("t", Config{Seed: 3, UseDelta: useDelta}.WithDefaults())
	}
	feed := func(r *Controller, thrBytes int) float64 {
		now := time.Duration(r.decisions+1) * 100 * time.Millisecond
		r.OnAck(&cc.Ack{Now: now, RTT: 50 * time.Millisecond, SRTT: 50 * time.Millisecond,
			MinRTT: 50 * time.Millisecond, Acked: thrBytes})
		r.OnTick(now + 50*time.Millisecond)
		return r.LastReward()
	}
	d := mk(true)
	d.OnTick(0)
	feed(d, 10000)
	r2 := feed(d, 10000)
	// Identical consecutive MIs: delta reward ~ 0.
	if math.Abs(r2) > 0.2 {
		t.Fatalf("delta reward for unchanged behaviour %v, want ~0", r2)
	}
	a := mk(false)
	a.OnTick(0)
	feed(a, 10000)
	ra := feed(a, 10000)
	if ra == 0 {
		t.Fatal("absolute reward should be non-zero for steady throughput")
	}
}

func TestNoFeedbackKeepsRate(t *testing.T) {
	r := New("t", Config{Seed: 4}.WithDefaults())
	r.OnTick(0)
	rate0 := r.Rate()
	r.OnTick(100 * time.Millisecond) // no acks arrived
	if r.Rate() != rate0 {
		t.Fatal("empty MI must keep the previous rate decision")
	}
	if r.Decisions() != 0 {
		t.Fatal("empty MI should not count as a decision")
	}
}

func TestSetRateClamps(t *testing.T) {
	r := New("t", Config{Seed: 5}.WithDefaults())
	r.SetRate(1e18)
	if r.Rate() > r.cfg.CC.MaxRate {
		t.Fatal("SetRate must clamp")
	}
}

func TestHistoryStacking(t *testing.T) {
	r := New("t", Config{Seed: 6, History: 3}.WithDefaults())
	r.OnTick(0)
	now := time.Duration(0)
	for i := 0; i < 5; i++ {
		now += 100 * time.Millisecond
		r.OnAck(&cc.Ack{Now: now, RTT: 50 * time.Millisecond, SRTT: 50 * time.Millisecond,
			MinRTT: 50 * time.Millisecond, Acked: 10000 * (i + 1)})
		r.OnTick(now)
	}
	if len(r.stateBuf) != 3*StateWidth(r.cfg.Features) {
		t.Fatalf("state length %d", len(r.stateBuf))
	}
	// Oldest slot should differ from newest (features changed).
	w := r.width
	same := true
	for i := 0; i < w; i++ {
		if r.stateBuf[i] != r.stateBuf[len(r.stateBuf)-w+i] {
			same = false
		}
	}
	if same {
		t.Fatal("history slots identical; shifting broken")
	}
}

func TestTrainingPopulatesBufferAndStopsClean(t *testing.T) {
	cfg := Config{Seed: 7, Train: true}.WithDefaults()
	r := New("t", cfg)
	r.OnTick(0)
	now := time.Duration(0)
	for i := 0; i < 10; i++ {
		now += 100 * time.Millisecond
		r.OnAck(&cc.Ack{Now: now, RTT: 50 * time.Millisecond, SRTT: 50 * time.Millisecond,
			MinRTT: 50 * time.Millisecond, Acked: 10000})
		r.OnTick(now)
	}
	r.Stop(now)
	if r.Agent().BufLen() < 5 {
		t.Fatalf("agent buffer %d transitions", r.Agent().BufLen())
	}
	st := r.Agent().Update(0)
	if st.Samples == 0 {
		t.Fatal("update consumed nothing")
	}
}

func TestTrainLoopRuns(t *testing.T) {
	env := LaptopEnvRange()
	env.CellularFraction = 0.5
	res := Train(TrainConfig{
		Episodes:   4,
		EpisodeLen: 3 * time.Second,
		Env:        &env,
		Ctrl:       LibraRLConfig(cc.Config{}),
		Seed:       11,
	})
	if len(res.Rewards) != 4 {
		t.Fatalf("reward series %d entries", len(res.Rewards))
	}
	for i, rw := range res.Rewards {
		if math.IsNaN(rw) || math.IsInf(rw, 0) {
			t.Fatalf("episode %d reward %v", i, rw)
		}
	}
	if res.Agent == nil {
		t.Fatal("no agent returned")
	}
}

func TestTrainDeterministicBySeed(t *testing.T) {
	run := func() []float64 {
		return Train(TrainConfig{
			Episodes:   3,
			EpisodeLen: 2 * time.Second,
			Ctrl:       LibraRLConfig(cc.Config{}),
			Seed:       13,
		}).Rewards
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("episode %d rewards differ: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestUntrainedAgentStillControlsSafely(t *testing.T) {
	// Even an untrained policy must keep the flow alive and bounded.
	res := cctest.RunSingle(cctest.Scenario{
		Capacity: trace.Constant(trace.Mbps(24)),
		MinRTT:   40 * time.Millisecond,
		Buffer:   150000,
		Duration: 10 * time.Second,
	}, New("rl", Config{Seed: 17}.WithDefaults()))
	if res.Throughput <= 0 {
		t.Fatal("flow starved")
	}
	if res.Utilization > 1.05 {
		t.Fatal("impossible utilization")
	}
}

func TestPresetsDistinct(t *testing.T) {
	spaces := NamedStateSpaces()
	if len(spaces) != 7 {
		t.Fatalf("expected 7 named state spaces, got %d", len(spaces))
	}
	for name, fs := range spaces {
		if len(fs) == 0 {
			t.Fatalf("%s empty", name)
		}
	}
	if AuroraConfig(cc.Config{}).UseDelta {
		t.Fatal("Aurora uses absolute reward")
	}
	if !LibraRLConfig(cc.Config{}).UseDelta {
		t.Fatal("Libra RL uses delta reward")
	}
	if OrcaRLConfig(cc.Config{}).Action != MIMDOrca {
		t.Fatal("Orca RL action mode wrong")
	}
}
