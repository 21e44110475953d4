package stats

import (
	"math"
)

// Sketch is a mergeable streaming quantile sketch in the DDSketch
// family: values land in logarithmically spaced buckets, so any
// reported quantile is within a fixed *relative* error of the true
// one (alpha, default 1%). Memory is bounded by the clamped index
// range — a few KB regardless of how many samples stream through —
// and Add performs no allocation once a value's bucket range exists.
//
// Determinism is part of the contract: bucket indices are pure
// arithmetic on the value, bucket counts merge by addition, and the
// running sum accumulates in call order, so analyses that merge
// per-shard sketches in a fixed shard order produce byte-identical
// reports at any worker count (the sweep engine's convention).
type Sketch struct {
	gamma   float64 // bucket base: (1+alpha)/(1-alpha)
	lgGamma float64 // math.Log(gamma), cached
	alpha   float64

	// buckets[i] counts values whose log-gamma index is offset+i.
	// Indices are clamped to [minIndex, maxIndex], the indices of the
	// trackable range's edges, so the array can never outgrow it.
	minIndex, maxIndex int
	offset             int
	buckets            []uint64

	zeros uint64 // values <= minTrackable (incl. zero and negatives)
	count uint64
	sum   float64
	min   float64
	max   float64
}

// Trackable value range: ~1e-9 .. 1e12 covers every quantity the
// framework sketches (Mbps rates, millisecond RTTs, byte queue
// depths) with headroom on both sides. Values outside clamp to the
// range edges rather than growing the index space.
const (
	sketchMinValue = 1e-9
	sketchMaxValue = 1e12
)

// NewSketch returns a sketch with relative accuracy alpha (0 means
// the 1% default). Sketches merge only with equal-alpha peers.
func NewSketch(alpha float64) *Sketch {
	if alpha <= 0 || alpha >= 1 {
		alpha = 0.01
	}
	gamma := (1 + alpha) / (1 - alpha)
	s := &Sketch{
		gamma:   gamma,
		lgGamma: math.Log(gamma),
		alpha:   alpha,
		min:     math.Inf(1),
		max:     math.Inf(-1),
	}
	s.minIndex, s.maxIndex = s.indexOf(sketchMinValue), s.indexOf(sketchMaxValue)
	return s
}

// index maps a positive value onto its log-gamma bucket index, clamped
// to the trackable range.
func (s *Sketch) index(v float64) int {
	return min(max(s.indexOf(v), s.minIndex), s.maxIndex)
}

// indexOf is index without the clamp (used to compute the clamp).
func (s *Sketch) indexOf(v float64) int {
	return int(math.Ceil(math.Log(v) / s.lgGamma))
}

// Add folds one sample in. NaN is dropped; values at or below the
// minimum trackable magnitude (including zero and negatives — every
// sketched quantity is nonnegative) count in a dedicated zero bucket.
func (s *Sketch) Add(v float64) {
	if math.IsNaN(v) {
		return
	}
	if math.IsInf(v, 1) {
		v = sketchMaxValue
	}
	s.count++
	s.sum += v
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	if v <= sketchMinValue {
		s.zeros++
		return
	}
	s.bump(s.index(v), 1)
}

// bump adds n to the bucket at absolute index i, growing the dense
// array as needed. Growth is bounded by the clamped index range.
func (s *Sketch) bump(i int, n uint64) {
	if len(s.buckets) == 0 {
		s.offset = i
		s.buckets = append(s.buckets, n)
		return
	}
	switch {
	case i < s.offset:
		grown := make([]uint64, len(s.buckets)+(s.offset-i))
		copy(grown[s.offset-i:], s.buckets)
		s.buckets = grown
		s.offset = i
	case i >= s.offset+len(s.buckets):
		grown := make([]uint64, i-s.offset+1)
		copy(grown, s.buckets)
		s.buckets = grown
	}
	s.buckets[i-s.offset] += n
}

// Merge folds o into s. Sketches must share an accuracy (they do when
// both come from NewSketch with the same alpha); a nil or empty o is
// a no-op. Bucket counts add, so merging is insensitive to how the
// stream was sharded — only the (fixed) merge order of the float sum
// matters for bit-equality.
func (s *Sketch) Merge(o *Sketch) {
	if o == nil || o.count == 0 {
		return
	}
	s.count += o.count
	s.sum += o.sum
	s.zeros += o.zeros
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	for j, n := range o.buckets {
		if n != 0 {
			s.bump(o.offset+j, n)
		}
	}
}

// Count returns the number of samples folded in.
func (s *Sketch) Count() uint64 { return s.count }

// Sum returns the exact running sum of samples.
func (s *Sketch) Sum() float64 { return s.sum }

// Mean returns the exact sample mean (0 when empty).
func (s *Sketch) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return s.sum / float64(s.count)
}

// Min returns the exact minimum (0 when empty).
func (s *Sketch) Min() float64 {
	if s.count == 0 {
		return 0
	}
	return s.min
}

// Max returns the exact maximum (0 when empty).
func (s *Sketch) Max() float64 {
	if s.count == 0 {
		return 0
	}
	return s.max
}

// Quantile returns the q-th quantile (q in [0,1]) to within the
// sketch's relative accuracy: the returned value is the geometric
// midpoint of the bucket holding the q*count-th sample. Exact min and
// max are returned at the extremes, 0 when the sketch is empty.
func (s *Sketch) Quantile(q float64) float64 {
	if s.count == 0 {
		return 0
	}
	if q <= 0 {
		return s.Min()
	}
	if q >= 1 {
		return s.Max()
	}
	// rank is the 1-based position of the wanted sample.
	rank := uint64(math.Ceil(q * float64(s.count)))
	if rank < 1 {
		rank = 1
	}
	if rank <= s.zeros {
		return s.Min()
	}
	cum := s.zeros
	for j, n := range s.buckets {
		cum += n
		if cum >= rank {
			// Geometric bucket midpoint: 2*gamma^i/(gamma+1) lies within
			// alpha of every value the bucket can hold.
			i := float64(s.offset + j)
			return 2 * math.Exp(i*s.lgGamma) / (s.gamma + 1)
		}
	}
	return s.Max()
}
