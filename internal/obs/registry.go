package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
)

// Counter is a monotonically increasing integer metric. The zero value is
// ready to use; updates are single atomic adds, cheap enough for the
// scheduler hot path.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float-valued metric that can go up and down (current simulated
// time, queue depth). Updates are single atomic stores.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(floatBits(v)) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return floatFromBits(g.bits.Load()) }

// Histogram is a registry handle around metrics.Histogram: the same
// geometric buckets the offline analyses use, guarded by a mutex so the
// executor goroutine can observe while HTTP handlers snapshot.
type Histogram struct {
	mu sync.Mutex
	h  *metrics.Histogram // guarded by mu
}

// Observe records one non-negative observation.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	h.h.Add(v)
	h.mu.Unlock()
}

// ObserveBatch records a batch of observations in slice order under one lock
// acquisition — the flush path of batched instrumentation buffers. The
// histogram state afterwards is bit-identical to observing each value
// individually.
func (h *Histogram) ObserveBatch(vs []float64) {
	h.mu.Lock()
	h.h.AddBatch(vs)
	h.mu.Unlock()
}

// snapshot copies the histogram state under the lock.
func (h *Histogram) snapshot() HistogramValue {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramValue{
		Count:   h.h.N(),
		Sum:     h.h.Sum(),
		Max:     h.h.Max(),
		Buckets: h.h.Buckets(),
	}
}

// Registry holds the named metrics of one run. Handles are created once
// (get-or-create, so independent instrumentation sites can share a metric
// by name) and updated lock-free on the hot path; Snapshot produces a
// deterministic, name-sorted view for exporters.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter   // guarded by mu
	gauges   map[string]*Gauge     // guarded by mu
	hists    map[string]*Histogram // guarded by mu
	help     map[string]string     // guarded by mu
	names    []string              // registration-complete name list, sorted lazily; guarded by mu
	// sketchBases are the base names the span sketch stores export under;
	// stores are those stores, in registration order.
	sketchBases map[string]bool // guarded by mu
	stores      []*sketchStore  // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:    make(map[string]*Counter),
		gauges:      make(map[string]*Gauge),
		hists:       make(map[string]*Histogram),
		help:        make(map[string]string),
		sketchBases: make(map[string]bool),
	}
}

// register records a name the first time it appears and rejects a name
// reused across metric types.
func (r *Registry) register(name, help string, taken bool) {
	if taken {
		panic(fmt.Sprintf("obs: metric name %q already registered with a different type", name))
	}
	//lint:ignore lockguard register is the locked-section helper of the four getters; every caller holds r.mu
	if _, dup := r.help[name]; !dup {
		//lint:ignore lockguard caller holds r.mu (see above)
		r.names = append(r.names, name)
	}
	//lint:ignore lockguard caller holds r.mu (see above)
	r.help[name] = help
}

// Counter returns the counter registered under name, creating it on first
// use. Registering the same name as a different metric type panics.
//
//lint:coldpath metric registration happens at wiring time; hot code holds the returned handle
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	_, g := r.gauges[name]
	_, h := r.hists[name]
	r.register(name, help, g || h || r.sketchBases[name])
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
//
//lint:coldpath metric registration happens at wiring time; hot code holds the returned handle
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	_, c := r.counters[name]
	_, h := r.hists[name]
	r.register(name, help, c || h || r.sketchBases[name])
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given geometric bucket base on first use.
//
//lint:coldpath metric registration happens at wiring time; hot code holds the returned handle
func (r *Registry) Histogram(name, help string, base float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	_, c := r.counters[name]
	_, g := r.gauges[name]
	r.register(name, help, c || g || r.sketchBases[name])
	h := &Histogram{h: metrics.NewHistogram(base)}
	r.hists[name] = h
	return h
}

// addSketchStore registers a span sketch store, whose sketches export under
// the given base names (plain or with a `{...}` label block appended). A
// store registers once, at wiring time; Snapshot then asks it for its
// sketches. A base name already taken by another metric or store panics,
// like any cross-type reuse.
//
//lint:coldpath sketch stores register once per SpanBuilder, at wiring time
func (r *Registry) addSketchStore(st *sketchStore, bases []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range bases {
		_, c := r.counters[name]
		_, g := r.gauges[name]
		_, h := r.hists[name]
		if c || g || h || r.sketchBases[name] {
			panic(fmt.Sprintf("obs: metric name %q already registered", name))
		}
		r.sketchBases[name] = true
	}
	r.stores = append(r.stores, st)
}

// CounterValue is one counter in a snapshot.
type CounterValue struct {
	Name  string
	Help  string
	Value uint64
}

// GaugeValue is one gauge in a snapshot.
type GaugeValue struct {
	Name  string
	Help  string
	Value float64
}

// HistogramValue is one histogram in a snapshot. Buckets are the geometric
// cells of metrics.Histogram, per-bucket (not cumulative), zero bucket
// first.
type HistogramValue struct {
	Name    string
	Help    string
	Count   int
	Sum     float64
	Max     float64
	Buckets []metrics.Bucket
}

// QuantileValue is one reported percentile of a sketch snapshot.
type QuantileValue struct {
	Q     float64
	Value float64
}

// SketchValue is one quantile sketch in a snapshot, carrying the standard
// p50/p95/p99 trio plus count/sum/max.
type SketchValue struct {
	Name      string
	Help      string
	Count     int64
	Sum       float64
	Max       float64
	Quantiles []QuantileValue
}

// Snapshot is a deterministic point-in-time view of a registry: every
// section sorted by metric name.
type Snapshot struct {
	Counters   []CounterValue
	Gauges     []GaugeValue
	Histograms []HistogramValue
	Sketches   []SketchValue
}

// Snapshot captures every metric. The result is identical for identical
// metric states regardless of registration or map order.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	names := make([]string, len(r.names))
	copy(names, r.names)
	sort.Strings(names)
	var snap Snapshot
	for _, name := range names {
		help := r.help[name]
		if c, ok := r.counters[name]; ok {
			snap.Counters = append(snap.Counters, CounterValue{Name: name, Help: help, Value: c.Value()})
		} else if g, ok := r.gauges[name]; ok {
			snap.Gauges = append(snap.Gauges, GaugeValue{Name: name, Help: help, Value: g.Value()})
		} else if h, ok := r.hists[name]; ok {
			hv := h.snapshot()
			hv.Name, hv.Help = name, help
			snap.Histograms = append(snap.Histograms, hv)
		}
	}
	stores := r.stores
	r.mu.Unlock()
	for _, st := range stores {
		snap.Sketches = st.appendSketches(snap.Sketches)
	}
	sort.Slice(snap.Sketches, func(i, j int) bool { return snap.Sketches[i].Name < snap.Sketches[j].Name })
	return snap
}

func floatBits(v float64) uint64     { return math.Float64bits(v) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }
