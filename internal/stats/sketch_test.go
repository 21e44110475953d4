package stats

import (
	"math"
	"math/rand"
	"testing"
)

// TestSketchRelativeError checks every reported quantile of a lognormal
// sample is within the promised relative error of the exact one.
func TestSketchRelativeError(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := NewSketch(0.01)
	vals := make([]float64, 0, 20000)
	for i := 0; i < 20000; i++ {
		v := math.Exp(rng.NormFloat64()*2 + 3) // spans several decades
		vals = append(vals, v)
		s.Add(v)
	}
	for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99} {
		got := s.Quantile(q)
		want := Percentile(vals, q*100)
		if math.Abs(got-want) > 0.03*want {
			t.Errorf("q=%.2f: sketch %.4f vs exact %.4f (>3%% off)", q, got, want)
		}
	}
	if s.Count() != 20000 {
		t.Fatalf("count %d", s.Count())
	}
	if s.Quantile(0) != s.Min() || s.Quantile(1) != s.Max() {
		t.Fatal("extreme quantiles must be exact min/max")
	}
}

// TestSketchMergeEquivalence checks sharding the stream and merging
// gives identical state to one sequential sketch, however it is split.
func TestSketchMergeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]float64, 5000)
	for i := range vals {
		vals[i] = rng.Float64() * 1000
	}
	whole := NewSketch(0.01)
	for _, v := range vals {
		whole.Add(v)
	}
	for _, parts := range []int{2, 3, 7} {
		shards := make([]*Sketch, parts)
		for i := range shards {
			shards[i] = NewSketch(0.01)
		}
		for i, v := range vals {
			shards[i%parts].Add(v)
		}
		merged := NewSketch(0.01)
		for _, sh := range shards {
			merged.Merge(sh)
		}
		if merged.Count() != whole.Count() || merged.Min() != whole.Min() || merged.Max() != whole.Max() {
			t.Fatalf("parts=%d: merged count/min/max diverge", parts)
		}
		for _, q := range []float64{0.05, 0.5, 0.95, 0.99} {
			if merged.Quantile(q) != whole.Quantile(q) {
				t.Fatalf("parts=%d q=%g: merged %.6f vs whole %.6f",
					parts, q, merged.Quantile(q), whole.Quantile(q))
			}
		}
	}
}

// TestSketchEdgeCases covers zero/negative/NaN/Inf inputs and the
// empty sketch.
func TestSketchEdgeCases(t *testing.T) {
	s := NewSketch(0)
	if s.Quantile(0.5) != 0 || s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty sketch must report zeros")
	}
	s.Add(math.NaN())
	if s.Count() != 0 {
		t.Fatal("NaN must be dropped")
	}
	s.Add(0)
	s.Add(-5)
	s.Add(math.Inf(1))
	if s.Count() != 3 {
		t.Fatalf("count %d, want 3", s.Count())
	}
	if s.Min() != -5 {
		t.Fatalf("min %g", s.Min())
	}
	// The +Inf sample clamps to the max trackable value.
	if s.Max() != sketchMaxValue {
		t.Fatalf("max %g", s.Max())
	}
	if q := s.Quantile(0.5); q != s.Min() {
		// two of three samples are in the zero bucket; the median is
		// reported as the exact minimum
		t.Fatalf("median %g, want min", q)
	}
	// Values beyond the trackable range clamp instead of growing memory.
	s2 := NewSketch(0.01)
	s2.Add(1e30)
	s2.Add(1e-30)
	if s2.Count() != 2 {
		t.Fatal("clamped values must still count")
	}
}

// TestSketchAddNoAlloc pins the steady-state Add path to zero
// allocations — the analyzer feeds one Add per event on its hot path.
func TestSketchAddNoAlloc(t *testing.T) {
	s := NewSketch(0.01)
	for i := 1; i <= 1000; i++ {
		s.Add(float64(i))
	}
	n := testing.AllocsPerRun(1000, func() { s.Add(512.3) })
	if n != 0 {
		t.Fatalf("Add allocates %.1f times per call in steady state", n)
	}
}

// TestSketchIndexClampBounds pins index, whose clamp bounds NewSketch
// computes once, to the formula that recomputed them for every sample:
// over a log sweep of the whole float range, both clamp edges, and the
// values on either side of each edge bucket's boundaries.
func TestSketchIndexClampBounds(t *testing.T) {
	for _, alpha := range []float64{0.01, 0.05, 0.2} {
		s := NewSketch(alpha)
		ceilLog := func(v float64) int { return int(math.Ceil(math.Log(v) / s.lgGamma)) }
		want := func(v float64) int {
			i, lo, hi := ceilLog(v), ceilLog(sketchMinValue), ceilLog(sketchMaxValue)
			if i < lo {
				i = lo
			}
			if i > hi {
				i = hi
			}
			return i
		}
		vals := []float64{math.SmallestNonzeroFloat64, sketchMinValue, sketchMaxValue, math.MaxFloat64}
		for v := 1e-300; v < 1e300; v *= 1.37 {
			vals = append(vals, v)
		}
		lo, hi := ceilLog(sketchMinValue), ceilLog(sketchMaxValue)
		for _, k := range []int{lo - 2, lo - 1, lo, lo + 1, hi - 1, hi, hi + 1, hi + 2} {
			edge := math.Exp(float64(k) * s.lgGamma)
			vals = append(vals, math.Nextafter(edge, 0), edge, math.Nextafter(edge, math.Inf(1)))
		}
		for _, v := range []float64{sketchMinValue, sketchMaxValue} {
			vals = append(vals, math.Nextafter(v, 0), math.Nextafter(v, math.Inf(1)))
		}
		for _, v := range vals {
			if got, w := s.index(v), want(v); got != w {
				t.Fatalf("alpha %v: index(%g) = %d, want %d", alpha, v, got, w)
			}
		}
	}
}
