// Package rl implements Proximal Policy Optimization (Schulman et al.,
// 2017) with a diagonal-Gaussian policy and GAE(lambda) advantages —
// the algorithm the paper trains its RL-based CCA with (Alg. 2).
package rl

import (
	"math"
	"math/rand"

	"libra/internal/nn"
)

const log2Pi = 1.8378770664093453

// GaussianPolicy is a diagonal-Gaussian policy: an MLP produces the
// action mean; a state-independent log-stddev vector is trained
// alongside the network.
type GaussianPolicy struct {
	Actor   *nn.MLP
	LogStd  []float64
	gLogStd []float64
	gMean   []float64 // BackwardLogProb scratch
	rng     *rand.Rand
}

// NewGaussianPolicy builds a policy for obsDim -> actDim with the given
// hidden sizes.
func NewGaussianPolicy(rng *rand.Rand, obsDim, actDim int, hidden []int, initLogStd float64) *GaussianPolicy {
	sizes := append([]int{obsDim}, hidden...)
	sizes = append(sizes, actDim)
	p := &GaussianPolicy{
		// TanhApprox (max error < 1e-4 vs exact tanh) is used for both
		// training and inference, so there is no train/serve skew; it
		// keeps the activation pass from dominating batched inference.
		Actor:   nn.NewMLP(rng, nn.TanhApprox, sizes...),
		LogStd:  make([]float64, actDim),
		gLogStd: make([]float64, actDim),
		gMean:   make([]float64, actDim),
		rng:     rng,
	}
	for i := range p.LogStd {
		p.LogStd[i] = initLogStd
	}
	return p
}

// clone deep-copies the policy's weights with a fresh RNG for action
// sampling; gradients start zeroed.
func (p *GaussianPolicy) clone(rng *rand.Rand) *GaussianPolicy {
	return &GaussianPolicy{
		Actor:   p.Actor.Clone(),
		LogStd:  append([]float64(nil), p.LogStd...),
		gLogStd: make([]float64, len(p.gLogStd)),
		gMean:   make([]float64, len(p.gLogStd)),
		rng:     rng,
	}
}

// Sample draws an action and returns it with its log-probability.
func (p *GaussianPolicy) Sample(obs []float64) (act []float64, logp float64) {
	mean := p.Actor.Forward(obs)
	act = make([]float64, len(mean))
	for i := range mean {
		std := math.Exp(p.LogStd[i])
		act[i] = mean[i] + std*p.rng.NormFloat64()
	}
	return act, p.logProbGiven(mean, act)
}

// Mean returns the deterministic (greedy) action. The returned slice is
// owned by the actor network.
func (p *GaussianPolicy) Mean(obs []float64) []float64 {
	return p.Actor.Forward(obs)
}

// MeanBatch evaluates the greedy action for a batch of observations
// (one per row) through a single forward pass per layer. Row i is
// bit-identical to Mean(row i); the returned matrix is owned by the
// actor network.
func (p *GaussianPolicy) MeanBatch(X *nn.Matrix) *nn.Matrix {
	return p.Actor.ForwardBatch(X)
}

// SampleFrom perturbs an already-computed action mean with seeded
// exploration noise: dst[i] = mean[i] + exp(LogStd[i]) * N(seed, i),
// where the normal draw is a pure function of (seed, i) — see gauss.go.
// dst is reused when correctly sized. Unlike Sample, the result is
// independent of any RNG stream position, so flows sharing this policy
// cannot perturb each other's actions.
func (p *GaussianPolicy) SampleFrom(mean []float64, seed uint64, dst []float64) []float64 {
	if len(dst) != len(mean) {
		dst = make([]float64, len(mean))
	}
	for i := range mean {
		std := math.Exp(p.LogStd[i])
		dst[i] = mean[i] + std*seededNormal(seed, i)
	}
	return dst
}

// LogProb evaluates log pi(act|obs), running a fresh forward pass (so a
// subsequent backward sees the right cached activations).
func (p *GaussianPolicy) LogProb(obs, act []float64) float64 {
	return p.logProbGiven(p.Actor.Forward(obs), act)
}

func (p *GaussianPolicy) logProbGiven(mean, act []float64) float64 {
	var lp float64
	for i := range mean {
		std := math.Exp(p.LogStd[i])
		z := (act[i] - mean[i]) / std
		lp += -0.5*z*z - p.LogStd[i] - 0.5*log2Pi
	}
	return lp
}

// Entropy returns the policy entropy (state-independent for a diagonal
// Gaussian).
func (p *GaussianPolicy) Entropy() float64 {
	var h float64
	for _, ls := range p.LogStd {
		h += ls + 0.5*(log2Pi+1)
	}
	return h
}

// BackwardLogProb accumulates gradients of (scale * log pi(act|obs))
// into the actor and log-std gradients. It must follow a LogProb call
// for the same (obs, act).
func (p *GaussianPolicy) BackwardLogProb(obs, act []float64, scale float64) {
	mean := p.Actor.Forward(obs)
	gradMean := p.gMean
	for i := range mean {
		std := math.Exp(p.LogStd[i])
		z := (act[i] - mean[i]) / std
		// d logp / d mean = z / std ; d logp / d logstd = z^2 - 1.
		gradMean[i] = scale * z / std
		p.gLogStd[i] += scale * (z*z - 1)
	}
	p.Actor.Backward(gradMean)
}

// BackwardEntropy accumulates the entropy gradient (d H / d logstd = 1).
func (p *GaussianPolicy) BackwardEntropy(scale float64) {
	for i := range p.gLogStd {
		p.gLogStd[i] += scale
	}
}

// ZeroGrad clears all accumulated gradients.
func (p *GaussianPolicy) ZeroGrad() {
	p.Actor.ZeroGrad()
	for i := range p.gLogStd {
		p.gLogStd[i] = 0
	}
}

// Params returns the trainable parameters (actor weights + log-std).
func (p *GaussianPolicy) Params() []*nn.Matrix {
	return append(p.Actor.Params(), &nn.Matrix{Rows: len(p.LogStd), Cols: 1, Data: p.LogStd})
}

// Grads returns gradients aligned with Params.
func (p *GaussianPolicy) Grads() []*nn.Matrix {
	return append(p.Actor.Grads(), &nn.Matrix{Rows: len(p.gLogStd), Cols: 1, Data: p.gLogStd})
}
