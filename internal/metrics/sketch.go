package metrics

import (
	"fmt"
	"math"
	"unsafe"
)

// Sketch is a deterministic quantile sketch with fixed geometric bucket
// boundaries (the DDSketch family): bucket i covers values in
// (gamma^(i-1), gamma^i] with gamma = (1+alpha)/(1-alpha), so every quantile
// estimate is the upper edge of a bucket and carries a relative error bounded
// by alpha. Because the boundaries are a pure function of alpha — never of
// the data — two sketches built from the same observations in any order hold
// identical bucket counts.
//
// Like Histogram, a dedicated zero bucket carries the "met the deadline"
// mass point of tardiness distributions, and the running Sum accumulates in
// observation order.
type Sketch struct {
	gamma    float64
	logGamma float64
	zero     int64
	buckets  []sketchBucket // non-empty buckets, ascending by idx
	n        int64
	sum      float64
	max      float64
}

// sketchBucket is one non-empty bucket of a Sketch: its index and count.
// The sketch stores only these pairs (the sparse store of DDSketch), so a
// sketch that sees a handful of values spread over many decades costs a
// handful of pairs rather than a dense array spanning the whole range.
type sketchBucket struct {
	idx int32
	n   int64
}

// sketchMinBuckets is the capacity of a sketch's first bucket allocation:
// enough for the few distinct buckets a short-lived windowed sketch sees,
// so most of them allocate exactly once.
const sketchMinBuckets = 16

// sketchIndexBound clamps bucket indices: with alpha = 0.01 the bound covers
// values from roughly 1e-17 to 1e+17. Observations beyond it collapse into
// the edge buckets (Max still records the exact extreme).
const sketchIndexBound = 4096

// NewSketch returns a sketch with relative accuracy alpha (0 < alpha < 1;
// 0.01 gives 1% relative error, the conventional default).
//
//lint:coldpath sketch construction happens at metric-registration time
func NewSketch(alpha float64) *Sketch {
	if !(alpha > 0 && alpha < 1) || math.IsNaN(alpha) {
		panic(fmt.Sprintf("metrics: sketch alpha %v must be in (0, 1)", alpha))
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &Sketch{gamma: gamma, logGamma: math.Log(gamma)}
}

// Add records one observation. Negative and NaN values panic: tardiness,
// response times and slowdowns are non-negative by construction, so anything
// else is a caller bug worth surfacing immediately.
func (s *Sketch) Add(v float64) {
	if v < 0 || math.IsNaN(v) {
		panic(fmt.Sprintf("metrics: sketch observation %v must be non-negative", v))
	}
	s.n++
	s.sum += v
	if v > s.max {
		s.max = v
	}
	if v == 0 {
		s.zero++
		return
	}
	idx := s.index(v)
	// Binary search for the first bucket at or above idx.
	lo, hi := 0, len(s.buckets)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.buckets[mid].idx < idx {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.buckets) && s.buckets[lo].idx == idx {
		s.buckets[lo].n++
		return
	}
	s.insert(lo, idx)
}

// index maps a positive value to its bucket: the smallest i with
// gamma^i >= v, clamped to the indexable range.
func (s *Sketch) index(v float64) int32 {
	idx := int(math.Ceil(math.Log(v) / s.logGamma))
	if idx < -sketchIndexBound {
		idx = -sketchIndexBound
	}
	if idx > sketchIndexBound {
		idx = sketchIndexBound
	}
	return int32(idx)
}

// insert opens bucket idx with a count of one at position at, keeping the
// pairs sorted. It is the only place the sketch allocates: a sketch reaches
// it once per distinct bucket, and after Reset the kept capacity absorbs
// the next window's buckets without allocating.
//
//lint:coldpath a bucket is opened once per distinct index; steady-state Add into an existing bucket never reaches it
func (s *Sketch) insert(at int, idx int32) {
	if len(s.buckets) == cap(s.buckets) {
		grown := make([]sketchBucket, len(s.buckets), max(sketchMinBuckets, 2*cap(s.buckets)))
		copy(grown, s.buckets)
		s.buckets = grown
	}
	s.buckets = s.buckets[:len(s.buckets)+1]
	copy(s.buckets[at+1:], s.buckets[at:])
	s.buckets[at] = sketchBucket{idx: idx, n: 1}
}

// Reset clears the sketch's counts, sum and maximum. The bucket slice is
// truncated, not freed, so a tumbling-window observer can reuse one sketch
// per window: once the kept capacity covers a window's distinct buckets, the
// observe path never allocates again.
func (s *Sketch) Reset() {
	s.zero = 0
	s.n = 0
	s.sum = 0
	s.max = 0
	s.buckets = s.buckets[:0]
}

// RetainedBytes is the memory the sketch's bucket store pins: its capacity,
// not just the buckets in use.
func (s *Sketch) RetainedBytes() int {
	return cap(s.buckets) * int(unsafe.Sizeof(sketchBucket{}))
}

// N returns the number of observations.
func (s *Sketch) N() int64 { return s.n }

// Sum returns the exact running sum of all observations, accumulated in
// observation order.
func (s *Sketch) Sum() float64 { return s.sum }

// Max returns the largest observation.
func (s *Sketch) Max() float64 { return s.max }

// Quantile returns the upper bucket edge holding the q-quantile (0 < q <= 1):
// an upper estimate within relative error alpha of the true quantile (zero
// for the zero bucket). The estimate is a pure function of the bucket counts
// — identical counts give a bit-identical answer regardless of the order the
// observations arrived in.
func (s *Sketch) Quantile(q float64) float64 {
	if s.n == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(s.n)))
	acc := s.zero
	if acc >= target {
		return 0
	}
	for _, b := range s.buckets {
		acc += b.n
		if acc >= target {
			if b.idx >= sketchIndexBound {
				// Observations clamped into the top bucket may exceed its
				// nominal edge; the exact maximum is the honest bound.
				return s.max
			}
			edge := math.Pow(s.gamma, float64(b.idx))
			if edge > s.max {
				// The top bucket's edge can overshoot the data; the true
				// quantile never exceeds the exact maximum.
				return s.max
			}
			return edge
		}
	}
	return s.max
}
