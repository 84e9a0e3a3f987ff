package metrics

import (
	"math"
	"reflect"
	"testing"
)

// batchValues is a deterministic mix of the cases that matter for bucketing:
// zeros (the deadline-met mass point), exact powers of two (bucket
// boundaries), sub-unit values and irregular magnitudes spanning decades.
func batchValues() []float64 {
	vs := []float64{0, 1, 2, 4, 8, 0.25, 0.5, 3.7, 42, 1e-6, 1e6, 1024, 1023.999}
	x := 0.3
	for i := 0; i < 200; i++ {
		x = math.Mod(x*997.1+3.14159, 5000)
		vs = append(vs, x)
		if i%17 == 0 {
			vs = append(vs, 0)
		}
	}
	return vs
}

// TestHistogramAddBatchMatchesSequential: AddBatch is documented as the same
// left-fold as per-value Add — counts, buckets and the running sum must be
// bit-identical, not merely close.
func TestHistogramAddBatchMatchesSequential(t *testing.T) {
	vs := batchValues()
	for _, base := range []float64{2, math.E} {
		one, batch := NewHistogram(base), NewHistogram(base)
		for _, v := range vs {
			one.Add(v)
		}
		batch.AddBatch(vs)
		if one.N() != batch.N() || one.Max() != batch.Max() {
			t.Fatalf("base %v: n/max diverge: %d/%v vs %d/%v", base, one.N(), one.Max(), batch.N(), batch.Max())
		}
		if math.Float64bits(one.Sum()) != math.Float64bits(batch.Sum()) {
			t.Fatalf("base %v: sums not bit-identical: %x vs %x", base,
				math.Float64bits(one.Sum()), math.Float64bits(batch.Sum()))
		}
		if !reflect.DeepEqual(one.Buckets(), batch.Buckets()) {
			t.Fatalf("base %v: bucket layouts diverge", base)
		}
	}
}

// TestHistogramPow2Buckets pins the exponent-extraction fast path to the
// documented layout: bucket i covers [2^i, 2^(i+1)), exact at boundaries,
// with sub-unit values absorbed by the first bucket.
func TestHistogramPow2Buckets(t *testing.T) {
	h := NewHistogram(2)
	cases := []struct {
		v    float64
		want int // geometric bucket index (excluding the zero bucket)
	}{
		{1, 0}, {1.5, 0}, {2, 1}, {3.999, 1}, {4, 2}, {8, 3}, {1024, 10},
		{0.5, 0}, {0.001, 0}, // sub-unit clamps to the first bucket
	}
	for _, c := range cases {
		h = NewHistogram(2)
		h.Add(c.v)
		buckets := h.Buckets()[1:] // strip the zero bucket
		if len(buckets) != c.want+1 || buckets[c.want].Count != 1 {
			t.Errorf("Add(%v): bucket layout %+v, want single count in bucket %d", c.v, buckets, c.want)
		}
		if want := math.Pow(2, float64(c.want+1)); buckets[c.want].Upper != want {
			t.Errorf("Add(%v): bucket upper %v, want %v", c.v, buckets[c.want].Upper, want)
		}
	}
}
