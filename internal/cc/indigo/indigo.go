// Package indigo implements an Indigo-like controller (Yan et al.,
// Pantheon, ATC 2018). Indigo is an offline-trained neural policy that
// picks discrete congestion-window actions. We reproduce the runtime
// (discrete cwnd action set driven by a policy over normalised state)
// and provide two policies:
//
//   - the default shipped policy imitates Indigo's training oracle — it
//     steers cwnd towards a *conservative* fraction of the estimated
//     BDP, reproducing Indigo's well-documented cautious behaviour
//     (e.g. the under-utilising equilibrium of the paper's Tab. 5);
//   - an imitation-trained MLP (TrainImitation + UseModel) standing in
//     for the original's DAgger-trained LSTM.
//
// Both substitutions are documented in DESIGN.md.
package indigo

import (
	"math"
	"math/rand"
	"time"

	"libra/internal/cc"
	"libra/internal/nn"
)

// actions is Indigo's discrete cwnd action set.
var actions = []struct {
	mult float64
	add  float64 // in MSS
}{
	{mult: 0.5, add: 0},
	{mult: 1 / 1.025, add: 0},
	{mult: 1, add: 0},
	{mult: 1.025, add: 0},
	{mult: 2, add: 0},
	{mult: 1, add: 2},
}

// conservativeBDP is the fraction of the measured BDP the oracle steers
// towards; below 1.0 it reproduces Indigo's cautious equilibrium.
const conservativeBDP = 0.6

// Indigo is the controller. Construct with New.
type Indigo struct {
	cfg cc.Config
	mss float64

	cwnd    float64
	minRTT  time.Duration
	deliest float64 // delivery-rate EWMA, bytes/sec
	lastAdj time.Duration

	model *nn.MLP // optional imitation policy
}

// New returns an Indigo controller with the oracle-imitating default
// policy.
func New(cfg cc.Config) *Indigo {
	cfg = cfg.WithDefaults()
	return &Indigo{cfg: cfg, mss: float64(cfg.MSS), cwnd: 10 * float64(cfg.MSS)}
}

// UseModel installs an imitation-trained policy network (3 inputs ->
// len(actions) logits).
func (in *Indigo) UseModel(m *nn.MLP) { in.model = m }

// Name implements cc.Controller.
func (in *Indigo) Name() string { return "indigo" }

// state returns the normalised observation (cwnd in BDP units, RTT
// ratio, delivery in cwnd units).
func (in *Indigo) state(a *cc.Ack) [3]float64 {
	bdp := math.Max(in.deliest*in.minRTT.Seconds(), in.mss)
	return [3]float64{
		in.cwnd / bdp,
		float64(a.RTT) / math.Max(float64(in.minRTT), 1),
		a.DeliveryRate / math.Max(in.deliest, 1),
	}
}

// oracleTarget computes the cwnd the oracle steers towards. Without a
// queueing signal the delivery rate only reflects the current window
// (not link capacity), so the oracle probes upward; once the RTT
// inflates, it settles at a conservative fraction of the measured BDP.
func (in *Indigo) oracleTarget(a *cc.Ack) float64 {
	ratio := float64(a.RTT) / math.Max(float64(in.minRTT), 1)
	if ratio < 1.1 {
		return 1.5 * in.cwnd // probe: capacity not yet observed
	}
	target := conservativeBDP * in.deliest * in.minRTT.Seconds()
	return math.Max(target, 4*in.mss)
}

// oracleAction picks the discrete action moving cwnd closest to the
// conservative BDP target.
func (in *Indigo) oracleAction(target float64) int {
	best, bestDist := 2, math.Inf(1)
	for i, act := range actions {
		next := act.mult*in.cwnd + act.add*in.mss
		d := math.Abs(next - target)
		if d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

// OnAck implements cc.Controller: once per RTT pick a discrete action.
func (in *Indigo) OnAck(a *cc.Ack) {
	if in.minRTT == 0 || a.RTT < in.minRTT {
		in.minRTT = a.RTT
	}
	if a.DeliveryRate > 0 {
		const alpha = 0.2
		if in.deliest == 0 {
			in.deliest = a.DeliveryRate
		} else {
			in.deliest += alpha * (a.DeliveryRate - in.deliest)
		}
	}
	if a.Now-in.lastAdj < a.SRTT {
		return
	}
	in.lastAdj = a.Now

	var idx int
	if in.model != nil {
		st := in.state(a)
		logits := in.model.Forward(st[:])
		for i, v := range logits {
			if v > logits[idx] {
				idx = i
			}
		}
	} else {
		idx = in.oracleAction(in.oracleTarget(a))
	}
	act := actions[idx]
	in.cwnd = math.Max(act.mult*in.cwnd+act.add*in.mss, 2*in.mss)
}

// OnLoss implements cc.Controller: the policy reacts only through its
// state; a timeout resets conservatively.
func (in *Indigo) OnLoss(l *cc.Loss) {
	if l.Timeout {
		in.cwnd = math.Max(in.cwnd/2, 2*in.mss)
	}
}

// Rate implements cc.Controller; Indigo is window-based.
func (in *Indigo) Rate() float64 { return 0 }

// Window implements cc.Controller.
func (in *Indigo) Window() float64 { return in.cwnd }

// TrainImitation fits a small MLP to the oracle policy on synthetic
// states, standing in for Indigo's DAgger training. Returns the trained
// model (install with UseModel).
func TrainImitation(seed int64, samples int) *nn.MLP {
	rng := rand.New(rand.NewSource(seed))
	model := nn.NewMLP(rng, nn.Tanh, 3, 24, len(actions))
	opt := nn.NewAdam(3e-3)
	tmp := New(cc.Config{Seed: seed})
	for i := 0; i < samples; i++ {
		// Synthesise a plausible state.
		tmp.deliest = 1e5 + rng.Float64()*2e7
		tmp.minRTT = time.Duration(10+rng.Intn(190)) * time.Millisecond
		bdp := tmp.deliest * tmp.minRTT.Seconds()
		tmp.cwnd = bdp * (0.1 + 2.5*rng.Float64())
		target := conservativeBDP * bdp
		want := tmp.oracleAction(math.Max(target, 4*tmp.mss))

		st := [3]float64{
			tmp.cwnd / math.Max(bdp, 1),
			1 + rng.Float64()*2,
			0.5 + rng.Float64(),
		}
		logits := model.Forward(st[:])
		// Softmax cross-entropy gradient.
		maxv := logits[0]
		for _, v := range logits {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		probs := make([]float64, len(logits))
		for j, v := range logits {
			probs[j] = math.Exp(v - maxv)
			sum += probs[j]
		}
		grad := make([]float64, len(logits))
		for j := range probs {
			probs[j] /= sum
			grad[j] = probs[j]
		}
		grad[want] -= 1
		model.ZeroGrad()
		model.Backward(grad)
		opt.Step(model.Params(), model.Grads())
	}
	return model
}
