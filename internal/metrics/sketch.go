package metrics

import (
	"fmt"
	"math"
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
	lo       int // bucket index of buckets[0]; meaningful when len(buckets) > 0
	buckets  []int64
	n        int64
	sum      float64
	max      float64
}

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
	if idx < s.lo || idx >= s.lo+len(s.buckets) {
		s.extend(idx)
	}
	s.buckets[idx-s.lo]++
}

// AddBatch records every observation in vs, in slice order. It is exactly
// equivalent to calling Add on each value — the running sum is the same
// left-fold — and exists as the flush target for batched observers.
func (s *Sketch) AddBatch(vs []float64) {
	for _, v := range vs {
		s.Add(v)
	}
}

// index maps a positive value to its bucket: the smallest i with
// gamma^i >= v, clamped to the indexable range.
func (s *Sketch) index(v float64) int {
	idx := int(math.Ceil(math.Log(v) / s.logGamma))
	if idx < -sketchIndexBound {
		idx = -sketchIndexBound
	}
	if idx > sketchIndexBound {
		idx = sketchIndexBound
	}
	return idx
}

// extend reshapes the dense backing array so bucket idx is addressable:
// seeding on first use, padding downward, or growing upward. This is
// warm-up-only work — once the array covers the data's dynamic range, Add
// never calls it again, which is what keeps the steady-state observation
// path allocation-free.
//
//lint:coldpath bucket-range extension runs only until the array covers [lo, hi]; steady-state Add never reaches it
func (s *Sketch) extend(idx int) {
	if len(s.buckets) == 0 {
		s.lo = idx
		s.buckets = append(s.buckets, 0)
		return
	}
	if idx < s.lo {
		pad := make([]int64, s.lo-idx)
		s.buckets = append(pad, s.buckets...)
		s.lo = idx
	}
	for idx >= s.lo+len(s.buckets) {
		s.buckets = append(s.buckets, 0)
	}
}

// Reset clears the sketch's counts, sum and maximum while keeping the bucket
// array (and its covered index range) allocated, so a tumbling-window
// observer can reuse one sketch per window without re-extending: after the
// first few windows warm the array, the steady-state observe path never
// allocates again.
func (s *Sketch) Reset() {
	s.zero = 0
	s.n = 0
	s.sum = 0
	s.max = 0
	for i := range s.buckets {
		s.buckets[i] = 0
	}
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
	for i, c := range s.buckets {
		acc += c
		if acc >= target {
			if s.lo+i >= sketchIndexBound {
				// Observations clamped into the top bucket may exceed its
				// nominal edge; the exact maximum is the honest bound.
				return s.max
			}
			edge := math.Pow(s.gamma, float64(s.lo+i))
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
