package metrics

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// denseSketch is the dense-array Sketch the sparse store replaced, kept as
// the reference: one int64 count per bucket index in [lo, lo+len(buckets)),
// re-padded downward and grown upward as values arrive. Every empty bucket
// it carries adds zero to Quantile's running count, which is why the sparse
// store must agree with it bit for bit.
type denseSketch struct {
	gamma, logGamma float64
	zero            int64
	lo              int
	buckets         []int64
	n               int64
	sum, max        float64
}

func newDenseSketch(alpha float64) *denseSketch {
	gamma := (1 + alpha) / (1 - alpha)
	return &denseSketch{gamma: gamma, logGamma: math.Log(gamma)}
}

func (s *denseSketch) Add(v float64) {
	s.n++
	s.sum += v
	if v > s.max {
		s.max = v
	}
	if v == 0 {
		s.zero++
		return
	}
	idx := int(math.Ceil(math.Log(v) / s.logGamma))
	idx = max(-sketchIndexBound, min(sketchIndexBound, idx))
	switch {
	case len(s.buckets) == 0:
		s.lo = idx
		s.buckets = append(s.buckets, 0)
	case idx < s.lo:
		s.buckets = append(make([]int64, s.lo-idx), s.buckets...)
		s.lo = idx
	}
	for idx >= s.lo+len(s.buckets) {
		s.buckets = append(s.buckets, 0)
	}
	s.buckets[idx-s.lo]++
}

func (s *denseSketch) Quantile(q float64) float64 {
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
				return s.max
			}
			if edge := math.Pow(s.gamma, float64(s.lo+i)); edge <= s.max {
				return edge
			}
			return s.max
		}
	}
	return s.max
}

var refQuantiles = []float64{0.01, 0.5, 0.95, 0.99, 1}

// sameAsDense fails t unless s and ref hold bit-identical N, Sum, Max and
// quantiles.
func sameAsDense(t *testing.T, label string, s *Sketch, ref *denseSketch) {
	t.Helper()
	if s.N() != ref.n || math.Float64bits(s.Sum()) != math.Float64bits(ref.sum) ||
		math.Float64bits(s.Max()) != math.Float64bits(ref.max) {
		t.Fatalf("%s: n/sum/max %d/%v/%v, dense %d/%v/%v", label, s.N(), s.Sum(), s.Max(), ref.n, ref.sum, ref.max)
	}
	for _, q := range refQuantiles {
		if got, want := s.Quantile(q), ref.Quantile(q); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: q%v = %v, dense %v", label, q, got, want)
		}
	}
}

// refSeq is one named observation sequence.
type refSeq struct {
	name string
	vs   []float64
}

// refSequences returns deterministic observation sequences covering what the
// sparse store must get right: zeros, values clamped at both index bounds,
// runs that descend (opening buckets below every existing one) and then
// ascend, and wide random spreads.
func refSequences() []refSeq {
	r := rng.New(42)
	var seqs []refSeq
	var wide []float64
	for i := 0; i < 2000; i++ {
		switch r.Intn(10) {
		case 0:
			wide = append(wide, 0)
		case 1:
			wide = append(wide, 1e300) // clamps at +sketchIndexBound
		case 2:
			wide = append(wide, 1e-300) // clamps at -sketchIndexBound
		default:
			wide = append(wide, math.Exp(r.Float64()*80-40))
		}
	}
	seqs = append(seqs, refSeq{"wide", wide})
	var valley []float64
	for v := 1e6; v > 1e-6; v /= 1.7 {
		valley = append(valley, v, 0)
	}
	for v := 1e-5; v < 1e7; v *= 1.3 {
		valley = append(valley, v)
	}
	seqs = append(seqs, refSeq{"descend-ascend", valley})
	var few []float64
	for i := 0; i < 6; i++ {
		few = append(few, r.Float64()*100)
	}
	seqs = append(seqs, refSeq{"few", few})
	return append(seqs,
		refSeq{"zeros", []float64{0, 0, 0}},
		refSeq{"edges", []float64{1e300, 1e-300, math.MaxFloat64, math.SmallestNonzeroFloat64, 1e300}})
}

// TestSketchMatchesDenseReference: the sparse store answers exactly like the
// dense array it replaced, after every prefix of every sequence.
func TestSketchMatchesDenseReference(t *testing.T) {
	for _, seq := range refSequences() {
		name, vs := seq.name, seq.vs
		s, ref := NewSketch(0.01), newDenseSketch(0.01)
		for i, v := range vs {
			s.Add(v)
			ref.Add(v)
			if i%97 == 0 || i == len(vs)-1 {
				sameAsDense(t, name, s, ref)
			}
		}
	}
}

// TestSketchResetReuseMatchesFresh: a sketch reused after Reset answers
// exactly like a fresh one fed the same values, whatever it held before.
func TestSketchResetReuseMatchesFresh(t *testing.T) {
	seqs := refSequences()
	reused := NewSketch(0.01)
	for _, prevSeq := range seqs {
		prev := prevSeq.name
		for _, v := range prevSeq.vs {
			reused.Add(v)
		}
		reused.Reset()
		fresh, ref := NewSketch(0.01), newDenseSketch(0.01)
		for _, v := range seqs[1].vs { // descend-ascend
			reused.Add(v)
			fresh.Add(v)
			ref.Add(v)
		}
		sameAsDense(t, "reused after "+prev, reused, ref)
		sameAsDense(t, "fresh", fresh, ref)
		if reused.zero != fresh.zero || len(reused.buckets) != len(fresh.buckets) {
			t.Fatalf("after %s: reused store %d/%d buckets, fresh %d/%d",
				prev, reused.zero, len(reused.buckets), fresh.zero, len(fresh.buckets))
		}
		for i := range fresh.buckets {
			if reused.buckets[i] != fresh.buckets[i] {
				t.Fatalf("after %s: bucket %d is %+v, fresh %+v", prev, i, reused.buckets[i], fresh.buckets[i])
			}
		}
		reused.Reset()
	}
}
