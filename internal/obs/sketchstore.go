package obs

import (
	"sync"
	"unsafe"

	"repro/internal/metrics"
)

// This file holds the span layer's quantile sketches: one store per
// SpanBuilder with the three run-total sketches and one cell per
// (window, class, mode) that saw a completion. The store registers with the
// Registry once, and the Registry's Snapshot asks it for its sketches. Cells
// carry no name until they are first exported, when WindowMetric renders and
// caches it — an unscraped run formats no names at all.

// sketchKinds are the measures every observation feeds, in the order a cell
// holds its sketches.
var sketchKinds = [3]string{"tardiness", "response", "slowdown"}

// totalNames and the help texts are the exported names of the run-total
// sketches and the HELP lines of both families, indexed like sketchKinds.
var (
	totalNames = [3]string{MetricSpanTardiness, MetricSpanResponse, MetricSpanSlowdown}
	totalHelp  = [3]string{
		"per-span tardiness quantile sketch",
		"per-span response time quantile sketch",
		"per-span slowdown quantile sketch",
	}
	windowHelp = [3]string{
		"windowed tardiness quantile sketch",
		"windowed response time quantile sketch",
		"windowed slowdown quantile sketch",
	}
)

// sketchQuantiles are the percentiles every sketch snapshot reports — the
// SLA trio the paper's tardiness analysis and the windowed exports use.
var sketchQuantiles = [...]float64{0.5, 0.95, 0.99}

// winCell is one (window, class, mode) cell: its three sketches inline,
// indexed like sketchKinds, and the names they export under.
type winCell struct {
	sk    [3]metrics.Sketch
	win   int32
	class int8
	mode  string    // the mode name as first seen; escaped when the name is rendered
	names [3]string // rendered at first export; "" before
}

// cellChunk is how many cells one slab allocation holds.
const cellChunk = 64

// sketchStore is the sketch state of one SpanBuilder. Emission reaches it
// only through add, once per pending-buffer flush, and through newCell and
// openTotals on first sight of a cell or of any completion; exporters read
// it through appendSketches. Everything but the immutable proto is guarded
// by mu.
type sketchStore struct {
	mu     sync.Mutex
	proto  metrics.Sketch    // an empty sketch with the store's alpha; copied into new cells
	totals [3]metrics.Sketch // guarded by mu; run totals, indexed like sketchKinds
	hasTot bool              // guarded by mu; the totals export once a span completed
	cells  []*winCell        // guarded by mu; creation order
	slab   []winCell         // guarded by mu; unused tail of the current cell chunk
}

// newSketchStore returns an empty store whose sketches have accuracy alpha,
// registered with reg.
//
//lint:coldpath store construction happens once per SpanBuilder
func newSketchStore(reg *Registry, alpha float64) *sketchStore {
	s := &sketchStore{proto: *metrics.NewSketch(alpha)}
	s.totals = [3]metrics.Sketch{s.proto, s.proto, s.proto}
	reg.addSketchStore(s, append(totalNames[:],
		"asets_window_tardiness", "asets_window_response", "asets_window_slowdown"))
	return s
}

// openTotals makes the run-total sketches part of the export.
//
//lint:coldpath runs once, at the first completed span
func (s *sketchStore) openTotals() {
	s.mu.Lock()
	s.hasTot = true
	s.mu.Unlock()
}

// newCell creates the cell of (win, class, mode). It is the only place cells
// are made; the cell is part of the export from here on, with zero counts
// until the pending buffer next flushes.
//
//lint:coldpath runs once per (window, class, mode) cell, not per completion
func (s *sketchStore) newCell(win int32, class int8, mode string) *winCell {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.slab) == 0 {
		s.slab = make([]winCell, cellChunk)
	}
	c := &s.slab[0]
	s.slab = s.slab[1:]
	*c = winCell{sk: [3]metrics.Sketch{s.proto, s.proto, s.proto}, win: win, class: class, mode: mode}
	s.cells = append(s.cells, c)
	return c
}

// pendingObs is one buffered observation: the values of a completed span,
// indexed like sketchKinds, and its window cell (nil without windows).
type pendingObs struct {
	cell *winCell
	v    [3]float64
}

// add folds buffered observations into the totals and their cells, in
// buffer order, so every sketch sees its values in event order.
func (s *sketchStore) add(batch []pendingObs) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range batch {
		o := &batch[i]
		for k, v := range o.v {
			s.totals[k].Add(v)
			if o.cell != nil {
				o.cell.sk[k].Add(v)
			}
		}
	}
}

// appendSketches appends a snapshot of every exported sketch to dst, in no
// particular order (the Registry sorts), rendering the names of cells
// exported for the first time.
func (s *sketchStore) appendSketches(dst []SketchValue) []SketchValue {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 3 * len(s.cells)
	if s.hasTot {
		n += 3
	}
	qs := make([]QuantileValue, n*len(sketchQuantiles))
	value := func(name, help string, sk *metrics.Sketch) SketchValue {
		q := qs[:len(sketchQuantiles):len(sketchQuantiles)]
		qs = qs[len(sketchQuantiles):]
		for i, p := range sketchQuantiles {
			q[i] = QuantileValue{Q: p, Value: sk.Quantile(p)}
		}
		return SketchValue{Name: name, Help: help, Count: sk.N(), Sum: sk.Sum(), Max: sk.Max(), Quantiles: q}
	}
	if s.hasTot {
		for k := range sketchKinds {
			dst = append(dst, value(totalNames[k], totalHelp[k], &s.totals[k]))
		}
	}
	for _, c := range s.cells {
		if c.names[0] == "" {
			for k, kind := range sketchKinds {
				c.names[k] = WindowMetric(kind, int(c.win), classNames[c.class], c.mode)
			}
		}
		for k := range sketchKinds {
			dst = append(dst, value(c.names[k], windowHelp[k], &c.sk[k]))
		}
	}
	return dst
}

// retainedBytes is the memory the store pins: every cell slot of its slab
// chunks, their rendered names, and every sketch's bucket capacity.
func (s *sketchStore) retainedBytes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := (len(s.cells)+len(s.slab))*int(unsafe.Sizeof(winCell{})) +
		cap(s.cells)*int(unsafe.Sizeof((*winCell)(nil)))
	for k := range sketchKinds {
		total += s.totals[k].RetainedBytes()
	}
	for _, c := range s.cells {
		for k := range sketchKinds {
			total += c.sk[k].RetainedBytes() + len(c.names[k])
		}
	}
	return total
}
