package rl

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
)

// RunningNorm normalises features online with Welford mean/variance
// tracking — the "we also normalize these statistics in our state
// space" step of Sec. 4.2.
type RunningNorm struct {
	n    float64
	mean []float64
	m2   []float64
}

// NewRunningNorm tracks dim features.
func NewRunningNorm(dim int) *RunningNorm {
	return &RunningNorm{mean: make([]float64, dim), m2: make([]float64, dim)}
}

// Count returns the number of observations folded in.
func (r *RunningNorm) Count() float64 { return r.n }

// Observe folds one raw feature vector into the statistics.
func (r *RunningNorm) Observe(x []float64) {
	r.n++
	for i := range x {
		d := x[i] - r.mean[i]
		r.mean[i] += d / r.n
		r.m2[i] += d * (x[i] - r.mean[i])
	}
}

// Normalize writes the standardised features into dst (allocating when
// nil) and returns it. Before two observations it passes values through.
func (r *RunningNorm) Normalize(x, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(x))
	}
	for i := range x {
		if r.n < 2 {
			dst[i] = x[i]
			continue
		}
		std := math.Sqrt(r.m2[i]/(r.n-1)) + 1e-8
		v := (x[i] - r.mean[i]) / std
		// Clip to keep the network inputs bounded.
		if v > 10 {
			v = 10
		} else if v < -10 {
			v = -10
		}
		dst[i] = v
	}
	return dst
}

// Clone returns an independent copy of the statistics, so concurrent
// flows can keep observing features without sharing state.
func (r *RunningNorm) Clone() *RunningNorm {
	return &RunningNorm{
		n:    r.n,
		mean: append([]float64(nil), r.mean...),
		m2:   append([]float64(nil), r.m2...),
	}
}

// MemBytes estimates the resident bytes of the statistics (the count
// plus two float64 vectors), for shared-deployment memory accounting.
func (r *RunningNorm) MemBytes() int {
	return 8 * (1 + len(r.mean) + len(r.m2))
}

// normState is the gob wire format for RunningNorm.
type normState struct {
	N    float64
	Mean []float64
	M2   []float64
}

// Save serialises the normaliser's statistics.
func (r *RunningNorm) Save(w io.Writer) error {
	return gob.NewEncoder(w).Encode(&normState{N: r.n, Mean: r.mean, M2: r.m2})
}

// LoadNorm reconstructs a normaliser saved with Save.
func LoadNorm(rd io.Reader) (*RunningNorm, error) {
	var s normState
	if err := gob.NewDecoder(rd).Decode(&s); err != nil {
		return nil, fmt.Errorf("rl: load norm: %w", err)
	}
	return &RunningNorm{n: s.N, mean: s.Mean, m2: s.M2}, nil
}
