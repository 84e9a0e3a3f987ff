package rng

import (
	"fmt"
	"math"
	"sort"
)

// Zipf samples integers from a bounded Zipf distribution on [Min, Max]:
// P(X = Min+i) is proportional to 1/(i+1)^Alpha for i = 0..Max-Min, so the
// distribution is skewed toward the low end of the range. This matches the
// paper's transaction-length model: "length is generated according to a Zipf
// distribution over the range [1-50] ... skewed toward short transactions"
// with default skew alpha = 0.5 (Table I).
//
// The support is small (tens of values), so sampling uses inverse-transform
// over a precomputed cumulative table with binary search: O(log n) per draw
// and exactly one uniform variate consumed, which keeps workload replay
// deterministic and cheap.
type Zipf struct {
	min  int
	max  int
	cdf  []float64 // cdf[i] = P(X <= min+i)
	mean float64
}

// NewZipf constructs a bounded Zipf sampler on [min, max] with skew alpha.
// alpha may be zero (uniform) but must be non-negative; min must not exceed
// max.
func NewZipf(min, max int, alpha float64) (*Zipf, error) {
	if min > max {
		return nil, fmt.Errorf("rng: zipf range [%d, %d] is empty", min, max)
	}
	if alpha < 0 || math.IsNaN(alpha) || math.IsInf(alpha, 0) {
		return nil, fmt.Errorf("rng: zipf alpha %v must be finite and non-negative", alpha)
	}
	n := max - min + 1
	z := &Zipf{min: min, max: max, cdf: make([]float64, n)}
	var total float64
	for i := 0; i < n; i++ {
		w := math.Pow(float64(i+1), -alpha)
		total += w
		z.cdf[i] = total
		z.mean += w * float64(min+i)
	}
	z.mean /= total
	for i := range z.cdf {
		z.cdf[i] /= total
	}
	// Pin the final entry to exactly 1 so a uniform draw of 1-eps can never
	// fall past the end of the table due to floating-point rounding.
	z.cdf[n-1] = 1
	return z, nil
}

// MustZipf is like NewZipf but panics on invalid parameters. It is intended
// for package-level defaults and tests where the parameters are constants.
func MustZipf(min, max int, alpha float64) *Zipf {
	z, err := NewZipf(min, max, alpha)
	if err != nil {
		panic(err)
	}
	return z
}

// Sample draws one value from the distribution using src.
func (z *Zipf) Sample(src *Source) int {
	u := src.Float64()
	i := sort.SearchFloat64s(z.cdf, u)
	// SearchFloat64s returns the first index with cdf[i] >= u except when
	// cdf[i] == u, where it returns the index *after* the equal run; both
	// cases land inside the table because cdf ends at exactly 1 and u < 1.
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return z.min + i
}

// Mean returns the exact expected value of the distribution. The workload
// generator uses it to convert a target system utilization into a Poisson
// arrival rate (lambda = utilization / mean length).
func (z *Zipf) Mean() float64 { return z.mean }

// Min returns the smallest value in the support.
func (z *Zipf) Min() int { return z.min }

// Max returns the largest value in the support.
func (z *Zipf) Max() int { return z.max }

// Prob returns P(X = v), or 0 if v is outside the support. Exposed for
// distribution tests and for documentation tooling.
func (z *Zipf) Prob(v int) float64 {
	if v < z.min || v > z.max {
		return 0
	}
	i := v - z.min
	if i == 0 {
		return z.cdf[0]
	}
	return z.cdf[i] - z.cdf[i-1]
}
