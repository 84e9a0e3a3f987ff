package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/txn"
)

// The traced run times each layer from outside, through decorators around
// its public entry points. Every call adds to its operation's count and busy
// time; the first spansPerOp calls of each operation are also kept as spans
// and written out when the run ends, so memory stays bounded however many
// transactions a run holds.
const spansPerOp = 2048

// span is one timed call at a layer boundary. Parent is the span of the
// engine run (or HTTP request) that caused it, 0 for a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Layer  string `json:"layer"`
	Op     string `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Items  int    `json:"items,omitempty"`
}

// tracer owns the operations and the span sample of one traced run.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	parent atomic.Int64 // span of the engine run in progress

	mu    sync.Mutex
	ops   map[string]*op // keyed by layer.op; guarded by mu
	spans []span         // guarded by mu

	// inPolicy and nestedSinkNs separate sink time spent inside policy
	// callbacks (policy-internal events) from sink time the engine spends
	// itself. Both are touched only by the engine's goroutine.
	inPolicy     bool
	nestedSinkNs int64
	// completions counts OnCompletion callbacks per transaction ID while
	// non-nil; touched only by the engine's goroutine.
	completions []int
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), ops: map[string]*op{}} }

// op returns the operation layer.name, creating it on first use. keepDurs
// retains every call's duration for percentiles.
func (tr *tracer) op(layer, name string, keepDurs bool) *op {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	key := layer + "." + name
	o := tr.ops[key]
	if o == nil {
		o = &op{tr: tr, layer: layer, name: name, keepDurs: keepDurs}
		tr.ops[key] = o
	}
	return o
}

// beginRun opens the root span of an engine run; calls recorded until
// endRun are its children.
func (tr *tracer) beginRun() (id int64, start time.Time) {
	id = tr.nextID.Add(1)
	tr.parent.Store(id)
	return id, time.Now()
}

// endRun closes the run span opened by beginRun and returns its duration.
func (tr *tracer) endRun(id int64, start time.Time) time.Duration {
	now := time.Now()
	tr.parent.Store(0)
	tr.mu.Lock()
	tr.spans = append(tr.spans, span{ID: id, Layer: "engine", Op: "run",
		Start: int64(start.Sub(tr.epoch)), End: int64(now.Sub(tr.epoch))})
	tr.mu.Unlock()
	return now.Sub(start)
}

// op is one traced entry point: its call count, item count (events for a
// sink), busy time and, when kept, every call's duration.
type op struct {
	tr          *tracer
	layer, name string
	keepDurs    bool

	calls   atomic.Int64
	items   atomic.Int64
	ns      atomic.Int64
	sampled atomic.Int64

	mu   sync.Mutex
	durs []float64 // milliseconds; guarded by mu
}

// record adds one call of items items that started at start and returns
// its duration.
func (o *op) record(start time.Time, items int) time.Duration {
	end := time.Now()
	d := end.Sub(start)
	o.calls.Add(1)
	o.items.Add(int64(items))
	o.ns.Add(int64(d))
	if o.keepDurs {
		o.mu.Lock()
		o.durs = append(o.durs, float64(d)/1e6)
		o.mu.Unlock()
	}
	if o.sampled.Load() < spansPerOp && o.sampled.Add(1) <= spansPerOp {
		tr := o.tr
		s := span{ID: tr.nextID.Add(1), Parent: tr.parent.Load(), Layer: o.layer, Op: o.name,
			Start: int64(start.Sub(tr.epoch)), End: int64(end.Sub(tr.epoch)), Items: items}
		tr.mu.Lock()
		tr.spans = append(tr.spans, s)
		tr.mu.Unlock()
	}
	return d
}

// nsPer is the mean busy time per call (perItem false) or per item.
func (o *op) nsPer(perItem bool) float64 {
	n := o.calls.Load()
	if perItem {
		n = o.items.Load()
	}
	if n == 0 {
		return 0
	}
	return float64(o.ns.Load()) / float64(n)
}

// quantileMs returns the q-quantile of the kept call durations.
func (o *op) quantileMs(q float64) float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return quantile(o.durs, q)
}

// write stores the manifest, one summary line per operation and the span
// sample as JSON lines at path.
func (tr *tracer) write(path string, m manifest) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	tr.mu.Lock()
	keys := make([]string, 0, len(tr.ops))
	for k := range tr.ops {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	err = enc.Encode(map[string]any{"manifest": m})
	for _, k := range keys {
		if err != nil {
			break
		}
		o := tr.ops[k]
		err = enc.Encode(map[string]any{"op": k, "calls": o.calls.Load(), "items": o.items.Load(), "busy_ns": o.ns.Load()})
	}
	for i := range tr.spans {
		if err != nil {
			break
		}
		err = enc.Encode(&tr.spans[i])
	}
	tr.mu.Unlock()
	if err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// The decorators keep the seams the engines probe for: a policy's sink, and
// the emitter's zero-copy and batched paths.
var (
	_ sched.SinkSetter = (*tracedPolicy)(nil)
	_ obs.SharedSink   = (*tracedSink)(nil)
	_ obs.BatchSink    = (*tracedSink)(nil)
	_ cluster.Policy   = (*tracedRouter)(nil)
)

// tracedPolicy times a scheduling policy's callbacks. It forwards
// sched.SinkSetter, so policy-internal events reach the instrumented stream
// exactly as they do untraced.
type tracedPolicy struct {
	inner                                    sched.Scheduler
	tr                                       *tracer
	init, arrival, next, preempt, completion *op
}

func (tr *tracer) policy(inner sched.Scheduler) *tracedPolicy {
	return &tracedPolicy{
		inner: inner, tr: tr,
		init:       tr.op("policy", "init", false),
		arrival:    tr.op("policy", "arrival", false),
		next:       tr.op("policy", "next", false),
		preempt:    tr.op("policy", "preempt", false),
		completion: tr.op("policy", "completion", false),
	}
}

func (p *tracedPolicy) enter() time.Time {
	p.tr.inPolicy = true
	return time.Now()
}

func (p *tracedPolicy) exit(o *op, start time.Time) {
	o.record(start, 1)
	p.tr.inPolicy = false
}

func (p *tracedPolicy) Name() string { return p.inner.Name() }

func (p *tracedPolicy) Init(set *txn.Set) {
	s := p.enter()
	p.inner.Init(set)
	p.exit(p.init, s)
}

func (p *tracedPolicy) OnArrival(now float64, t *txn.Transaction) {
	s := p.enter()
	p.inner.OnArrival(now, t)
	p.exit(p.arrival, s)
}

func (p *tracedPolicy) Next(now float64) *txn.Transaction {
	s := p.enter()
	t := p.inner.Next(now)
	p.exit(p.next, s)
	return t
}

func (p *tracedPolicy) OnPreempt(now float64, t *txn.Transaction) {
	s := p.enter()
	p.inner.OnPreempt(now, t)
	p.exit(p.preempt, s)
}

func (p *tracedPolicy) OnCompletion(now float64, t *txn.Transaction) {
	s := p.enter()
	p.inner.OnCompletion(now, t)
	p.exit(p.completion, s)
	if p.tr.completions != nil {
		p.tr.completions[t.ID]++
	}
}

// SetSink implements sched.SinkSetter by forwarding to the policy.
func (p *tracedPolicy) SetSink(s obs.Sink) {
	if ss, ok := p.inner.(sched.SinkSetter); ok {
		ss.SetSink(s)
	}
}

// kindCounts counts events by kind.
type kindCounts [32]int64

func (k *kindCounts) add(kind obs.Kind) {
	if int(kind) < len(k) {
		k[kind]++
	}
}

// tracedSink times an event sink. It forwards obs.SharedSink and
// obs.BatchSink, so the emitter keeps its zero-copy and batched paths.
type tracedSink struct {
	inner  obs.Sink
	shared obs.SharedSink
	batch  obs.BatchSink
	tr     *tracer
	op     *op
	kinds  *kindCounts // counts each event once: set on the chain's first sink only
}

func (tr *tracer) sink(name string, inner obs.Sink, kinds *kindCounts) *tracedSink {
	s := &tracedSink{inner: inner, tr: tr, op: tr.op("obs", name, false), kinds: kinds}
	s.shared, _ = inner.(obs.SharedSink)
	s.batch, _ = inner.(obs.BatchSink)
	return s
}

func (s *tracedSink) done(start time.Time, items int) {
	d := s.op.record(start, items)
	if s.tr.inPolicy {
		s.tr.nestedSinkNs += int64(d)
	}
}

func (s *tracedSink) Emit(ev obs.Event) {
	start := time.Now()
	s.inner.Emit(ev)
	s.done(start, 1)
	if s.kinds != nil {
		s.kinds.add(ev.Kind)
	}
}

func (s *tracedSink) EmitShared(ev *obs.Event) {
	start := time.Now()
	if s.shared != nil {
		s.shared.EmitShared(ev)
	} else {
		s.inner.Emit(*ev)
	}
	s.done(start, 1)
	if s.kinds != nil {
		s.kinds.add(ev.Kind)
	}
}

func (s *tracedSink) EmitSharedBatch(evs []obs.Event) {
	start := time.Now()
	switch {
	case s.batch != nil:
		s.batch.EmitSharedBatch(evs)
	case s.shared != nil:
		for i := range evs {
			s.shared.EmitShared(&evs[i])
		}
	default:
		for i := range evs {
			s.inner.Emit(evs[i])
		}
	}
	s.done(start, len(evs))
	if s.kinds != nil {
		for i := range evs {
			s.kinds.add(evs[i].Kind)
		}
	}
}

// tracedRouter times a cluster routing policy.
type tracedRouter struct {
	inner cluster.Policy
	op    *op
}

func (tr *tracer) router(inner cluster.Policy) *tracedRouter {
	return &tracedRouter{inner: inner, op: tr.op("router", "pick", false)}
}

func (r *tracedRouter) Name() string { return r.inner.Name() }

func (r *tracedRouter) Pick(views []cluster.InstanceView) int {
	start := time.Now()
	i := r.inner.Pick(views)
	r.op.record(start, 1)
	return i
}

// countingWriter records a response's status and body size.
type countingWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *countingWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

func (w *countingWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

// httpTrace times the server's handlers for the routes the live workload
// drives; other routes pass through untimed.
type httpTrace struct {
	next     http.Handler
	routes   map[string]*op
	mu       sync.Mutex
	admitted int // 202 answers to /api/submit; guarded by mu
	submits  int // guarded by mu
	maxBytes int // largest /metrics body; guarded by mu
}

func (tr *tracer) http(next http.Handler) *httpTrace {
	return &httpTrace{next: next, routes: map[string]*op{
		pathSubmit:  tr.op("http", "submit", true),
		pathStats:   tr.op("http", "stats", true),
		pathMetrics: tr.op("http", "metrics", true),
	}}
}

func (h *httpTrace) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	o := h.routes[r.URL.Path]
	if o == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	cw := &countingWriter{ResponseWriter: w}
	start := time.Now()
	h.next.ServeHTTP(cw, r)
	o.record(start, 1)
	h.mu.Lock()
	defer h.mu.Unlock()
	switch r.URL.Path {
	case pathSubmit:
		h.submits++
		if cw.status == http.StatusAccepted {
			h.admitted++
		}
	case pathMetrics:
		h.maxBytes = max(h.maxBytes, cw.bytes)
	}
}
