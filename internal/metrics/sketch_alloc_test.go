//go:build !race

package metrics

import "testing"

// TestSketchWarmAddAllocatesNothing: once a sketch holds a bucket, adding
// into that bucket (and into the zero bucket) is allocation-free, including
// after a Reset that kept the capacity.
func TestSketchWarmAddAllocatesNothing(t *testing.T) {
	s := NewSketch(0.01)
	for _, v := range []float64{0, 1, 2.5, 40, 1e5} {
		s.Add(v)
	}
	if a := testing.AllocsPerRun(100, func() { s.Add(2.5); s.Add(0) }); a != 0 {
		t.Fatalf("warm Add allocated %v times per run", a)
	}
	s.Reset()
	if a := testing.AllocsPerRun(100, func() { s.Add(40); s.Add(1); s.Add(1e5) }); a != 0 {
		t.Fatalf("Add after Reset allocated %v times per run", a)
	}
}
