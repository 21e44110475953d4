package core

import (
	"math"
	"testing"
	"time"

	"libra/internal/cc"
	"libra/internal/cc/cubic"
	"libra/internal/cc/westwood"
	"libra/internal/cctest"
	"libra/internal/trace"
	"libra/internal/utility"
)

func mustUtil(name string) utility.Func {
	switch name {
	case "th2":
		return utility.Throughput2()
	case "la2":
		return utility.Latency2()
	}
	panic("unknown utility " + name)
}

// TestRegistered checks the name a Libra sender reports: the one the
// controller table passes in Config.Name, else "libra" over a classic
// CCA and "cl-libra" without one.
func TestRegistered(t *testing.T) {
	if got := New(Config{Name: "w-libra"}).Name(); got != "w-libra" {
		t.Errorf("Name() = %q, want w-libra", got)
	}
	if got := New(Config{}).Name(); got != "libra" {
		t.Errorf("Name() = %q, want libra", got)
	}
	if got := New(Config{NoClassic: true}).Name(); got != "cl-libra" {
		t.Errorf("NoClassic Name() = %q, want cl-libra", got)
	}
}

func TestDefaults(t *testing.T) {
	cfg := Config{}.WithDefaults()
	if cfg.ThresholdFrac != 0.3 || cfg.EIRTTs != 0.5 {
		t.Fatalf("defaults %+v", cfg)
	}
	if cfg.ExploreRTTs != 1 || cfg.ExploitRTTs != 1 {
		t.Fatal("CUBIC stages should be 1 RTT")
	}
	bcfg := Config{Classic: NewBBRAdapter(cc.Config{}.WithDefaults())}.WithDefaults()
	if bcfg.ExploreRTTs != 3 || bcfg.ExploitRTTs != 3 {
		t.Fatal("BBR stages should be 3 RTTs")
	}
}

func TestStageProgression(t *testing.T) {
	l := New(Config{CC: cc.Config{Seed: 1}})
	now := time.Duration(0)
	l.OnTick(now)
	if l.Stage() != StageExplore {
		t.Fatalf("initial stage %v", l.Stage())
	}
	// Feed ACKs and advance time; stages must cycle in order.
	seen := map[Stage]bool{StageExplore: true}
	var order []Stage
	last := l.Stage()
	for i := 0; i < 400; i++ {
		now += 10 * time.Millisecond
		l.OnAck(&cc.Ack{Now: now, RTT: 40 * time.Millisecond, SRTT: 40 * time.Millisecond,
			MinRTT: 40 * time.Millisecond, Acked: 1500})
		l.OnTick(now)
		if l.Stage() != last {
			order = append(order, l.Stage())
			last = l.Stage()
			seen[l.Stage()] = true
		}
	}
	for st := StageExplore; st <= StageExploit; st++ {
		if !seen[st] {
			t.Fatalf("stage %v never reached (order %v)", st, order)
		}
	}
	if l.Telemetry().Cycles == 0 {
		t.Fatal("no control cycles completed")
	}
}

func TestLowerRateFirstOrdering(t *testing.T) {
	l := New(Config{CC: cc.Config{Seed: 2}})
	l.started = true
	l.srtt = 40 * time.Millisecond
	l.startCycle(0)
	// Force known candidate rates, then exit exploration.
	l.xPrev = 1e6
	l.rl.SetRate(5e5) // RL lower
	l.advance(40 * time.Millisecond)
	if l.Stage() != StageEvalFirst {
		t.Fatalf("stage %v", l.Stage())
	}
	if l.evalLowIsCl && l.Rate() > l.xRl {
		t.Fatal("ordering flag inconsistent with applied rate")
	}
	if l.Rate() != math.Min(l.xCl, l.xRl) {
		t.Fatalf("first EI applies %v, want the lower of (%v, %v)", l.Rate(), l.xCl, l.xRl)
	}
	l.advance(60 * time.Millisecond)
	if l.Rate() != math.Max(l.xCl, l.xRl) {
		t.Fatalf("second EI applies %v, want the higher candidate", l.Rate())
	}
	l.advance(80 * time.Millisecond)
	if l.Stage() != StageExploit || l.Rate() != l.xPrev {
		t.Fatalf("exploitation must apply x_prev; stage %v rate %v", l.Stage(), l.Rate())
	}
}

func TestEarlyExitOnDivergence(t *testing.T) {
	l := New(Config{CC: cc.Config{Seed: 3}})
	now := time.Duration(0)
	l.OnTick(now)
	l.xPrev = 1e6
	// Make RL diverge wildly from the classic rate.
	l.rl.SetRate(1e8)
	// Before half the exploration budget, the early exit is disarmed
	// (SRTT-jitter immunity).
	now += time.Millisecond
	l.OnAck(&cc.Ack{Now: now, RTT: 40 * time.Millisecond, SRTT: 40 * time.Millisecond,
		MinRTT: 40 * time.Millisecond, Acked: 1500})
	if l.Stage() != StageExplore {
		t.Fatal("early exit must not fire before half the exploration budget")
	}
	// After the arming point it fires on the next ACK.
	now += 60 * time.Millisecond
	l.OnAck(&cc.Ack{Now: now, RTT: 40 * time.Millisecond, SRTT: 40 * time.Millisecond,
		MinRTT: 40 * time.Millisecond, Acked: 1500})
	if l.Stage() == StageExplore {
		t.Fatal("divergence beyond th1 should exit exploration early")
	}
}

func TestNoFeedbackRepeatsBaseRate(t *testing.T) {
	l := New(Config{CC: cc.Config{Seed: 4}, RecordCycles: true})
	l.OnTick(0)
	base := l.BaseRate()
	// Walk a full cycle with zero ACKs.
	now := time.Duration(0)
	for i := 0; i < 50 && l.Telemetry().Cycles == 0; i++ {
		now += 100 * time.Millisecond
		l.OnTick(now)
	}
	if l.Telemetry().Cycles == 0 {
		t.Fatal("cycle never completed")
	}
	if l.Telemetry().Skipped == 0 {
		t.Fatal("feedback-free cycle should invoke the no-ACK rule")
	}
	if l.BaseRate() != base {
		t.Fatalf("base rate changed without feedback: %v -> %v", base, l.BaseRate())
	}
	if len(l.CycleLog()) == 0 || !l.CycleLog()[0].Skipped {
		t.Fatal("cycle log should record the skip")
	}
}

func TestFillsWiredLink(t *testing.T) {
	res := cctest.RunSingle(cctest.Scenario{
		Capacity: trace.Constant(trace.Mbps(24)),
		MinRTT:   40 * time.Millisecond,
		Buffer:   120000,
		Duration: 40 * time.Second,
	}, New(Config{CC: cc.Config{Seed: 5}}))
	if res.Utilization < 0.75 {
		t.Fatalf("C-Libra utilization %.3f", res.Utilization)
	}
	// Libra's latency-aware utility should avoid sustained bufferbloat:
	// the full 40ms queue would double the RTT.
	if res.AvgRTT > 75*time.Millisecond {
		t.Fatalf("C-Libra avg RTT %v", res.AvgRTT)
	}
}

func TestBLibraFillsWiredLink(t *testing.T) {
	base := cc.Config{Seed: 6}.WithDefaults()
	res := cctest.RunSingle(cctest.Scenario{
		Capacity: trace.Constant(trace.Mbps(24)),
		MinRTT:   40 * time.Millisecond,
		Buffer:   120000,
		Duration: 40 * time.Second,
	}, New(Config{CC: base, Classic: NewBBRAdapter(base), Name: "b-libra"}))
	if res.Utilization < 0.7 {
		t.Fatalf("B-Libra utilization %.3f", res.Utilization)
	}
}

func TestTracksStepCapacity(t *testing.T) {
	res := cctest.RunSingle(cctest.Scenario{
		Capacity: &trace.Step{Period: 10 * time.Second,
			Levels: []float64{trace.Mbps(5), trace.Mbps(20), trace.Mbps(10)}},
		MinRTT:   80 * time.Millisecond,
		Buffer:   120000,
		Duration: 30 * time.Second,
	}, New(Config{CC: cc.Config{Seed: 7}}))
	if res.Utilization < 0.6 {
		t.Fatalf("step-scenario utilization %.3f", res.Utilization)
	}
}

func TestStochasticLossResilience(t *testing.T) {
	// Remark 3: x_rl and x_prev candidates rescue Libra from CUBIC's
	// erroneous loss-triggered reductions.
	libra := cctest.RunSingle(cctest.Scenario{
		Capacity: trace.Constant(trace.Mbps(24)),
		MinRTT:   40 * time.Millisecond,
		Buffer:   120000,
		Loss:     0.02,
		Duration: 40 * time.Second,
		Seed:     3,
	}, New(Config{CC: cc.Config{Seed: 8}}))
	cub := cctest.RunSingle(cctest.Scenario{
		Capacity: trace.Constant(trace.Mbps(24)),
		MinRTT:   40 * time.Millisecond,
		Buffer:   120000,
		Loss:     0.02,
		Duration: 40 * time.Second,
		Seed:     3,
	}, NewWindowAdapter(cubic.New(cc.Config{Seed: 8}.WithDefaults())))
	if libra.Utilization <= cub.Utilization {
		t.Fatalf("C-Libra (%.3f) should beat CUBIC (%.3f) under stochastic loss",
			libra.Utilization, cub.Utilization)
	}
}

func TestDecisionFractionsRecorded(t *testing.T) {
	l := New(Config{CC: cc.Config{Seed: 9}, RecordCycles: true})
	cctest.RunSingle(cctest.Scenario{
		Capacity: trace.Constant(trace.Mbps(24)),
		MinRTT:   40 * time.Millisecond,
		Buffer:   120000,
		Duration: 20 * time.Second,
	}, l)
	tel := l.Telemetry()
	if tel.Cycles < 10 {
		t.Fatalf("only %d cycles in 20s", tel.Cycles)
	}
	var sum float64
	for c := CandPrev; c <= CandRL; c++ {
		sum += tel.Fraction(c)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("win fractions sum to %v", sum)
	}
	if len(l.CycleLog()) != tel.Cycles {
		t.Fatalf("cycle log %d entries for %d cycles", len(l.CycleLog()), tel.Cycles)
	}
}

func TestCLLibraRunsWithoutClassic(t *testing.T) {
	res := cctest.RunSingle(cctest.Scenario{
		Capacity: trace.Constant(trace.Mbps(24)),
		MinRTT:   40 * time.Millisecond,
		Buffer:   120000,
		Duration: 20 * time.Second,
	}, New(Config{CC: cc.Config{Seed: 10}, NoClassic: true}))
	if res.Throughput <= 0 {
		t.Fatal("CL-Libra starved")
	}
}

func TestUtilityPreferenceChangesAggressiveness(t *testing.T) {
	run := func(u Config) float64 {
		return cctest.RunSingle(cctest.Scenario{
			Capacity: trace.Constant(trace.Mbps(24)),
			MinRTT:   40 * time.Millisecond,
			Buffer:   240000,
			Duration: 30 * time.Second,
		}, New(u)).AvgRTT.Seconds()
	}
	thr := run(Config{CC: cc.Config{Seed: 11}, Util: mustUtil("th2")})
	lat := run(Config{CC: cc.Config{Seed: 11}, Util: mustUtil("la2")})
	if lat > thr*1.05 {
		t.Fatalf("latency-oriented utility gave higher delay (%.3fs) than throughput-oriented (%.3fs)", lat, thr)
	}
}

func TestInterProtocolFairnessAvoidsStarvingCubic(t *testing.T) {
	// Remark 6: Libra must not starve CUBIC.
	a, b := cctest.RunPair(cctest.Scenario{
		Capacity: trace.Constant(trace.Mbps(48)),
		MinRTT:   40 * time.Millisecond,
		Buffer:   240000,
		Duration: 60 * time.Second,
	}, New(Config{CC: cc.Config{Seed: 12}}), NewWindowAdapter(cubic.New(cc.Config{Seed: 13}.WithDefaults())), 0)
	share := b.Throughput / (a.Throughput + b.Throughput)
	if share < 0.2 {
		t.Fatalf("CUBIC starved: share %.2f", share)
	}
}

func TestStageAndCandidateStrings(t *testing.T) {
	if StageExplore.String() == "" || StageExploit.String() != "exploit" {
		t.Fatal("stage names")
	}
	if CandPrev.String() != "x_prev" || CandRL.String() != "x_rl" || CandClassic.String() != "x_cl" {
		t.Fatal("candidate names")
	}
}

func TestDifferentialGradientBaseline(t *testing.T) {
	l := New(Config{CC: cc.Config{Seed: 20}})
	// With a positive baseline, a candidate whose gradient merely equals
	// the baseline is not penalised.
	l.baseGrad = 0.05
	var iv cc.IntervalStats
	iv.Reset(0)
	iv.AddAck(&cc.Ack{Now: 0, RTT: 100 * time.Millisecond, Acked: 15000})
	iv.AddAck(&cc.Ack{Now: 100 * time.Millisecond, RTT: 105 * time.Millisecond, Acked: 15000})
	iv.Close(100 * time.Millisecond)
	// Interval gradient = 0.05 == baseline -> effective gradient 0.
	withBase := l.utilityOf(&iv)
	l.baseGrad = 0
	withoutBase := l.utilityOf(&iv)
	if withBase <= withoutBase {
		t.Fatalf("baseline subtraction should remove the penalty: %v vs %v", withBase, withoutBase)
	}
}

func TestHigherRateFirstInvertsOrdering(t *testing.T) {
	l := New(Config{CC: cc.Config{Seed: 21}, HigherRateFirst: true})
	l.started = true
	l.srtt = 40 * time.Millisecond
	l.startCycle(0)
	l.xPrev = 1e6
	l.rl.SetRate(5e5)
	l.advance(40 * time.Millisecond)
	if l.Stage() != StageEvalFirst {
		t.Fatalf("stage %v", l.Stage())
	}
	if l.Rate() != math.Max(l.xCl, l.xRl) {
		t.Fatalf("ablated ordering should apply the higher rate first; got %v of (%v, %v)",
			l.Rate(), l.xCl, l.xRl)
	}
}

func TestWindowAdapterIntegration(t *testing.T) {
	base := cc.Config{Seed: 22}.WithDefaults()
	res := cctest.RunSingle(cctest.Scenario{
		Capacity: trace.Constant(trace.Mbps(24)),
		MinRTT:   40 * time.Millisecond,
		Buffer:   120000,
		Duration: 30 * time.Second,
	}, New(Config{CC: base, Classic: NewWindowAdapter(westwood.New(base)), Name: "w-libra"}))
	if res.Utilization < 0.6 {
		t.Fatalf("W-Libra utilization %.3f", res.Utilization)
	}
}

func TestExploitIntervalRefreshesBaseline(t *testing.T) {
	l := New(Config{CC: cc.Config{Seed: 23}})
	cctest.RunSingle(cctest.Scenario{
		Capacity: trace.Constant(trace.Mbps(24)),
		MinRTT:   40 * time.Millisecond,
		Buffer:   240000,
		Duration: 10 * time.Second,
	}, l)
	// After a steady run the baseline must be finite and small.
	if math.IsNaN(l.baseGrad) || math.Abs(l.baseGrad) > 1 {
		t.Fatalf("baseline gradient %v", l.baseGrad)
	}
}
