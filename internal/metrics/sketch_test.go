package metrics

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/rng"
)

func TestSketchBasics(t *testing.T) {
	s := NewSketch(0.01)
	if got := s.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v", got)
	}
	s.Add(0)
	s.Add(0)
	s.Add(10)
	if s.N() != 3 || s.zero != 2 || s.Max() != 10 || s.Sum() != 10 {
		t.Fatalf("n=%d zero=%d max=%v sum=%v", s.N(), s.zero, s.Max(), s.Sum())
	}
	if got := s.Quantile(0.5); got != 0 {
		t.Fatalf("p50 = %v, want 0 (zero bucket)", got)
	}
	p99 := s.Quantile(0.99)
	if math.Abs(p99-10) > 10*0.011 {
		t.Fatalf("p99 = %v, want ~10 within 1%%", p99)
	}
}

func TestSketchRelativeAccuracy(t *testing.T) {
	const alpha = 0.01
	s := NewSketch(alpha)
	// 1..10000 uniformly: the true q-quantile of the multiset is known.
	for i := 1; i <= 10000; i++ {
		s.Add(float64(i))
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.95, 0.99, 1} {
		got := s.Quantile(q)
		want := math.Ceil(q * 10000)
		if rel := math.Abs(got-want) / want; rel > 2*alpha {
			t.Errorf("q=%v: got %v want %v (rel err %v)", q, got, want, rel)
		}
		if got > s.Max() {
			t.Errorf("q=%v: estimate %v exceeds max %v", q, got, s.Max())
		}
	}
}

func TestSketchOrderIndependentCounts(t *testing.T) {
	r := rng.New(7)
	vals := make([]float64, 500)
	for i := range vals {
		vals[i] = r.Float64() * 100
	}
	fwd, rev := NewSketch(0.02), NewSketch(0.02)
	for _, v := range vals {
		fwd.Add(v)
	}
	for i := len(vals) - 1; i >= 0; i-- {
		rev.Add(vals[i])
	}
	if fwd.zero != rev.zero || !reflect.DeepEqual(fwd.buckets, rev.buckets) {
		t.Fatal("bucket counts depend on insertion order")
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if fwd.Quantile(q) != rev.Quantile(q) {
			t.Fatalf("q=%v differs across insertion orders", q)
		}
	}
}

func TestSketchPanics(t *testing.T) {
	for _, alpha := range []float64{0, 1, -0.5, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSketch(%v) did not panic", alpha)
				}
			}()
			NewSketch(alpha)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative Add did not panic")
			}
		}()
		NewSketch(0.01).Add(-1)
	}()
}

func TestSketchExtremeValuesClamp(t *testing.T) {
	s := NewSketch(0.01)
	s.Add(1e300)
	s.Add(1e-300)
	if s.N() != 2 || s.Max() != 1e300 {
		t.Fatalf("n=%d max=%v", s.N(), s.Max())
	}
	// The top quantile must report the exact maximum, not an overshooting
	// clamped bucket edge.
	if got := s.Quantile(1); got != 1e300 {
		t.Fatalf("p100 = %v, want exact max", got)
	}
}
