package obs

import "repro/internal/txn"

// Metric names of the decision-event recorder, one table for every layer
// that records decisions; the taxonomy is documented in
// docs/OBSERVABILITY.md.
const (
	// Decision loop (every instrumented run).
	MetricArrivals    = "asets_sched_arrivals_total"
	MetricDispatches  = "asets_sched_dispatches_total"
	MetricPreemptions = "asets_sched_preemptions_total"
	MetricCompletions = "asets_sched_completions_total"
	MetricMisses      = "asets_sched_deadline_misses_total"
	MetricAging       = "asets_sched_aging_activations_total"
	MetricModeSwitch  = "asets_sched_mode_switches_total"
	// MetricConflictDefers counts queued transactions a conflict-aware
	// policy (contention.Deferring) skipped in favour of a later
	// non-conflicting one.
	MetricConflictDefers = "asets_sched_conflict_defers_total"
	MetricTardiness      = "asets_tardiness"
	MetricResponse       = "asets_response_time"
	MetricSimNow         = "asets_sim_now"

	// Fault injection and admission control (LayerFault).
	MetricAborts   = "asets_fault_aborts_total"
	MetricRestarts = "asets_fault_restarts_total"
	MetricStalls   = "asets_fault_stalls_total"
	MetricShed     = "asets_admit_shed_total"
	MetricDegraded = "asets_admit_degraded"

	// MetricValidateFails counts commit-time validation failures, each of
	// which forces a re-execution from scratch (LayerContention).
	MetricValidateFails = "asets_contention_validate_fails_total"

	// Cluster routing tier (LayerCluster).
	MetricRouted     = "asets_cluster_routed_total"
	MetricFailovers  = "asets_cluster_failovers_total"
	MetricLost       = "asets_cluster_lost_total"
	MetricEjections  = "asets_cluster_ejections_total"
	MetricRecoveries = "asets_cluster_recoveries_total"
	MetricHealthy    = "asets_cluster_healthy_instances"
)

// Layers selects the metric families a Recorder registers beyond the
// decision loop's, so a run exports only the series of the layers it runs.
type Layers uint8

// The optional layers.
const (
	LayerFault Layers = 1 << iota
	LayerContention
	LayerCluster
)

// counter indexes the recorder's counters.
type counter uint8

const (
	cArrivals counter = iota
	cDispatches
	cPreemptions
	cCompletions
	cMisses
	cAging
	cModeSwitches
	cConflictDefers
	cAborts
	cRestarts
	cStalls
	cShed
	cValidateFails
	cRouted
	cFailovers
	cLost
	cEjections
	cRecoveries
	numCounters
)

var counterSpecs = [numCounters]struct {
	name, help string
	layer      Layers // 0: the decision loop
}{
	cArrivals:       {MetricArrivals, "transactions submitted to the scheduler", 0},
	cDispatches:     {MetricDispatches, "transactions checked out to a server", 0},
	cPreemptions:    {MetricPreemptions, "transactions returned unfinished after running", 0},
	cCompletions:    {MetricCompletions, "transactions finished", 0},
	cMisses:         {MetricMisses, "completions past the deadline", 0},
	cAging:          {MetricAging, "balance-aware T_old activations", 0},
	cModeSwitches:   {MetricModeSwitch, "EDF/HDF scheduling-entity migrations", 0},
	cConflictDefers: {MetricConflictDefers, "queued transactions deferred by conflict-aware dispatch", 0},
	cAborts:         {MetricAborts, "transaction aborts (including crash losses)", LayerFault},
	cRestarts:       {MetricRestarts, "aborted transactions re-queued after backoff", LayerFault},
	cStalls:         {MetricStalls, "backend stall/crash windows entered", LayerFault},
	cShed:           {MetricShed, "transactions shed by the admission controller", LayerFault},
	cValidateFails:  {MetricValidateFails, "commit-time validation failures (contention re-executions)", LayerContention},
	cRouted:         {MetricRouted, "transactions assigned to an instance by the routing tier", LayerCluster},
	cFailovers:      {MetricFailovers, "crash-lost transactions re-enqueued to a surviving instance", LayerCluster},
	cLost:           {MetricLost, "transactions permanently lost (retry budget exhausted or failover disabled)", LayerCluster},
	cEjections:      {MetricEjections, "instances ejected by the circuit-breaker", LayerCluster},
	cRecoveries:     {MetricRecoveries, "ejected instances half-opened after recovery", LayerCluster},
}

// recBatch is the staging buffer length: events leave through one
// Emitter.EmitBatch call (one Ring lock acquisition per batch) when the
// buffer fills or Flush drains it. Delivery order is emission order, so
// batching is invisible to every sink fold.
const recBatch = 128

// histBatchSize is the per-histogram insert buffer length.
const histBatchSize = 256

// histBatch is a fixed-capacity insert buffer for one registry histogram.
// Values reach the histogram in insertion order whether they leave on a
// full buffer or on Flush, so its running sum is bit-identical to
// unbatched observation.
type histBatch struct {
	n   int
	buf [histBatchSize]float64
}

// push buffers v, flushing into h when the buffer fills.
func (b *histBatch) push(h *Histogram, v float64) {
	b.buf[b.n] = v
	b.n++
	if b.n == histBatchSize {
		h.ObserveBatch(b.buf[:])
		b.n = 0
	}
}

// flush drains any pending values into h.
func (b *histBatch) flush(h *Histogram) {
	if b.n > 0 {
		h.ObserveBatch(b.buf[:b.n])
		b.n = 0
	}
}

// Recorder is the one emission point of the decision-event stream: the
// simulator's loop (and through it the executor and the closed loop) and
// the cluster's fleet loop call one method per decision, and the recorder
// builds the typed Event and the matching registry update. As a Sink it is
// also the entry of policy-internal events (handed to policies through
// SetSink) and of the fleet's SLO alerts, so every event of a run leaves in
// emission order through one staging buffer — N fleet instances share it
// and cannot reorder.
//
// The path allocates nothing in steady state. Events are written in place
// into a fixed staging buffer and delivered through Emitter.EmitBatch;
// counts accumulate in plain fields and reach the registry's atomic
// counters at Flush; completion histograms batch through fixed buffers.
// Registry reads between Flush calls lag by at most one drain; every
// deterministic output is read after the final Flush. A Recorder is used
// from one goroutine.
//
// Every method is a no-op on a nil *Recorder, which is what NewRecorder
// returns when nothing would observe the run.
type Recorder struct {
	em   *Emitter
	emit bool // em has at least one endpoint

	buf [recBatch]Event
	n   int

	counters [numCounters]*Counter // nil for layers not registered
	counts   [numCounters]uint64   // accumulated since the last Flush

	tardiness, response *Histogram
	tardBuf, respBuf    histBatch

	simNow *Gauge
	nowVal float64
	nowSet bool

	degraded, healthy *Gauge
}

// NewRecorder returns the recorder of one run, emitting into sink and
// counting into reg, with the decision-loop metrics and those of layers
// registered. With neither an observing sink (nil or Discard) nor a
// registry it returns nil: an uninstrumented run pays one nil check per
// decision. Events are stamped with the simulated time the caller passes,
// never the host clock.
//
//lint:coldpath recorder wiring is per-run setup
func NewRecorder(sink Sink, reg *Registry, layers Layers) *Recorder {
	if (sink == nil || sink == Discard) && reg == nil {
		return nil
	}
	if reg == nil {
		reg = NewRegistry()
	}
	r := &Recorder{em: NewEmitter(sink)}
	r.emit = r.em.Sinks() > 0
	for c, spec := range counterSpecs {
		if spec.layer != 0 && layers&spec.layer == 0 {
			continue
		}
		r.counters[c] = reg.Counter(spec.name, spec.help)
	}
	r.tardiness = reg.Histogram(MetricTardiness, "tardiness of completed transactions", 2)
	r.response = reg.Histogram(MetricResponse, "response time (finish - arrival) of completed transactions", 2)
	r.simNow = reg.Gauge(MetricSimNow, "simulated time of the latest scheduler callback")
	if layers&LayerFault != 0 {
		r.degraded = reg.Gauge(MetricDegraded, "1 while the admission controller is in degradation mode")
	}
	if layers&LayerCluster != 0 {
		r.healthy = reg.Gauge(MetricHealthy, "instances currently accepting routed work")
	}
	return r
}

// Flush delivers the staged events to the sinks, drains the histogram
// buffers and publishes the accumulated counts, so a registry snapshot or a
// sink read taken afterwards sees every decision recorded so far.
func (r *Recorder) Flush() {
	if r == nil {
		return
	}
	if r.n > 0 {
		r.flushEvents()
	}
	r.tardBuf.flush(r.tardiness)
	r.respBuf.flush(r.response)
	for c := range r.counts {
		if n := r.counts[c]; n > 0 && r.counters[c] != nil {
			r.counters[c].Add(n)
			r.counts[c] = 0
		}
	}
	if r.nowSet {
		r.simNow.Set(r.nowVal)
		r.nowSet = false
	}
}

func (r *Recorder) flushEvents() {
	r.em.EmitBatch(r.buf[:r.n])
	r.n = 0
}

// slot claims the next staging slot, flushing the buffer first when it is
// full.
func (r *Recorder) slot() *Event {
	if r.n == recBatch {
		r.flushEvents()
	}
	r.n++
	return &r.buf[r.n-1]
}

// put stages one event. It writes every field of the slot in place,
// sparing a composite literal's temporary copy; Detail, the only pointer
// field, is stored only when it changes, so the common empty-detail store
// skips the write barrier.
//
//lint:hotpath
func (r *Recorder) put(now float64, kind Kind, id txn.ID, deadline, remaining, tardiness float64, detail string) {
	e := r.slot()
	e.Seq, e.Time, e.Kind, e.Txn, e.Workflow = 0, now, kind, id, -1
	e.Deadline, e.Remaining, e.Tardiness = deadline, remaining, tardiness
	if e.Detail != detail {
		e.Detail = detail
	}
}

// note counts c and reports whether the event is to be staged.
func (r *Recorder) note(c counter) bool {
	r.counts[c]++
	return r.emit
}

// txnEvent counts c and stages a kind event about t, carrying its deadline
// and remaining work.
func (r *Recorder) txnEvent(c counter, now float64, kind Kind, t *txn.Transaction, detail string) {
	if r != nil && r.note(c) {
		r.put(now, kind, t.ID, t.Deadline, t.Remaining, 0, detail)
	}
}

// loopEvent is txnEvent for a decision-loop callback, which also moves the
// simulated-time gauge. Its callers check for a nil recorder, so they stay
// small enough to inline and an unobserved run pays only the check.
func (r *Recorder) loopEvent(c counter, now float64, kind Kind, t *txn.Transaction, detail string) {
	r.nowVal, r.nowSet = now, true
	if r.note(c) {
		r.put(now, kind, t.ID, t.Deadline, t.Remaining, 0, detail)
	}
}

// Emit implements Sink: the entry of policy-internal events (aging, mode
// switches, conflict deferrals, counted here) and SLO alerts, staged in
// order with the decisions recorded around them.
func (r *Recorder) Emit(ev Event) {
	if r == nil {
		return
	}
	switch ev.Kind {
	case KindAging:
		r.counts[cAging]++
	case KindModeSwitch:
		r.counts[cModeSwitches]++
	case KindConflictDefer:
		r.counts[cConflictDefers]++
	case KindArrival, KindDispatch, KindPreempt, KindCompletion, KindDeadlineMiss,
		KindAbort, KindRestart, KindStall, KindShed, KindDegradeEnter, KindDegradeExit,
		KindRoute, KindFailover, KindEject, KindRecover, KindValidateFail,
		KindAlertFire, KindAlertResolve:
		// Counted where they are recorded, or by the SLO engine.
	default:
		panic("obs: recorder received an unknown event kind")
	}
	if r.emit {
		*r.slot() = ev
	}
}

// Arrival records t entering the scheduler.
func (r *Recorder) Arrival(now float64, t *txn.Transaction) {
	if r != nil {
		r.loopEvent(cArrivals, now, KindArrival, t, "")
	}
}

// Dispatch records t checked out to a server; detail names the fleet
// instance ("" on a single backend).
func (r *Recorder) Dispatch(now float64, t *txn.Transaction, detail string) {
	if r != nil {
		r.loopEvent(cDispatches, now, KindDispatch, t, detail)
	}
}

// Preempt records t returned to the scheduler unfinished.
func (r *Recorder) Preempt(now float64, t *txn.Transaction) {
	if r != nil {
		r.loopEvent(cPreemptions, now, KindPreempt, t, "")
	}
}

// Completion records t finished (its FinishTime set, so its tardiness is
// final), followed by a deadline-miss event when it finished late.
func (r *Recorder) Completion(now float64, t *txn.Transaction) {
	if r != nil {
		r.completion(now, t)
	}
}

func (r *Recorder) completion(now float64, t *txn.Transaction) {
	tard := t.Tardiness()
	r.counts[cCompletions]++
	r.nowVal, r.nowSet = now, true
	r.tardBuf.push(r.tardiness, tard)
	r.respBuf.push(r.response, t.FinishTime-t.Arrival)
	if tard > 0 {
		r.counts[cMisses]++
	}
	if r.emit {
		r.put(now, KindCompletion, t.ID, t.Deadline, 0, tard, "")
		if tard > 0 {
			r.put(now, KindDeadlineMiss, t.ID, t.Deadline, 0, tard, "")
		}
	}
}

// Abort records an abort of t. detail distinguishes the injector's keyed
// aborts ("abort") from crash losses ("crash"), which the span and
// invariant layers classify on; retryAt is the restart instant.
func (r *Recorder) Abort(now float64, t *txn.Transaction, detail string, retryAt float64) {
	if r != nil && r.note(cAborts) {
		r.put(now, KindAbort, t.ID, t.Deadline, retryAt-now, 0, detail)
	}
}

// Restart records t re-entering the scheduler after its backoff expired.
func (r *Recorder) Restart(now float64, t *txn.Transaction) {
	r.txnEvent(cRestarts, now, KindRestart, t, "")
}

// Stall records the backend entering an outage window of the given
// duration; detail names the window kind (and, on a fleet, the instance:
// "crash@2").
func (r *Recorder) Stall(now, duration float64, detail string) {
	if r != nil && r.note(cStalls) {
		r.put(now, KindStall, -1, 0, duration, 0, detail)
	}
}

// Shed records the admission controller named controller rejecting t.
func (r *Recorder) Shed(now float64, t *txn.Transaction, controller string) {
	r.txnEvent(cShed, now, KindShed, t, controller)
}

// Degrade records the admission controller entering (on) or leaving
// degradation mode.
func (r *Recorder) Degrade(now float64, on bool) {
	if r == nil {
		return
	}
	kind, v := KindDegradeExit, 0.0
	if on {
		kind, v = KindDegradeEnter, 1
	}
	r.degraded.Set(v)
	if r.emit {
		r.put(now, kind, -1, 0, 0, 0, "")
	}
}

// ValidateFail records t failing commit-time validation. Remaining carries
// the full length the re-executed incarnation must serve; detail names the
// fleet instance ("" on a single backend).
func (r *Recorder) ValidateFail(now float64, t *txn.Transaction, detail string) {
	if r != nil && r.note(cValidateFails) {
		r.put(now, KindValidateFail, t.ID, t.Deadline, t.Length, 0, detail)
	}
}

// Route records the router assigning an arriving t to instance inst; the
// event precedes the arrival it causes.
func (r *Recorder) Route(now float64, t *txn.Transaction, inst string) {
	r.txnEvent(cRouted, now, KindRoute, t, inst)
}

// Failover records a crash-lost t landing on a new instance (detail
// "to<-from").
func (r *Recorder) Failover(now float64, t *txn.Transaction, detail string) {
	r.txnEvent(cFailovers, now, KindFailover, t, detail)
}

// Lost records a crash-lost t dropped for good. The kind is still failover
// — the routing tier decided — with the terminal detail "lost".
func (r *Recorder) Lost(now float64, t *txn.Transaction) {
	if r != nil && r.note(cLost) {
		r.put(now, KindFailover, t.ID, t.Deadline, 0, 0, "lost")
	}
}

// Eject records the circuit-breaker removing instance inst from the
// routing set, leaving healthy instances.
func (r *Recorder) Eject(now float64, inst string, healthy int) {
	r.breaker(cEjections, now, KindEject, inst, healthy)
}

// Recover records ejected instance inst half-opening after its outage.
func (r *Recorder) Recover(now float64, inst string, healthy int) {
	r.breaker(cRecoveries, now, KindRecover, inst, healthy)
}

// breaker records a circuit-breaker transition of instance inst.
func (r *Recorder) breaker(c counter, now float64, kind Kind, inst string, healthy int) {
	if r == nil {
		return
	}
	r.healthy.Set(float64(healthy))
	if r.note(c) {
		r.put(now, kind, -1, 0, 0, 0, inst)
	}
}
