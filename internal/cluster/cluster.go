package cluster

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/admit"
	"repro/internal/contention"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/slo"
	"repro/internal/txn"
)

// instance is one fault domain: a single-server backend with its own
// scheduler queue, admission controller and fault injector.
type instance struct {
	idx  int
	name string // strconv.Itoa(idx), interned once for event details

	sched sched.Scheduler
	ctrl  admit.Controller
	inj   *fault.Injector
	// slo is the instance's SLO alert engine (nil unless Config.SLO is set):
	// each fault domain is its own alerting domain.
	slo *slo.Engine
	// val is the instance's commit-time validator — each fault domain is an
	// independent database, so versions never flow across instances; nil on
	// keyless workloads (docs/CONTENTION.md).
	val *contention.Validator

	running *txn.Transaction
	queued  int     // admitted, unfinished, not running, not backing off
	backlog float64 // remaining work: running + queued + backing off
	busy    float64

	ejected   bool    // breaker open: out of the routing set
	halfOpen  bool    // breaker half-open: routable, on probation
	reopenAt  float64 // when an ejected breaker half-opens
	stallSeen int     // last outage window whose entry was recorded
	crashSeen int     // last crash window whose instance-wide loss was applied
	delivered bool    // got an arrival/restart/failover at the current instant

	routed      int
	failoversIn int
	crashLost   int
	completed   int
	misses      int
	degraded    bool
}

// inStall reports whether the instance is inside an outage window at now.
func (in *instance) inStall(now float64) (fault.Window, int, bool) {
	if in.inj == nil {
		return fault.Window{}, -1, false
	}
	return in.inj.InStall(now)
}

// view builds the instance's routing signal.
func (in *instance) view(now float64) InstanceView {
	_, _, stalled := in.inStall(now)
	running := 0
	if in.running != nil {
		running = 1
	}
	return InstanceView{
		Index: in.idx, Ejected: in.ejected, HalfOpen: in.halfOpen,
		Stalled: stalled, Running: running, Queued: in.queued, Backlog: in.backlog,
	}
}

// InstanceResult is one instance's share of a cluster run.
type InstanceResult struct {
	// Routed counts arrivals the router placed here; FailoversIn counts
	// crash-lost transactions re-enqueued here from other instances.
	Routed      int `json:"routed"`
	FailoversIn int `json:"failovers_in"`
	// CrashLost counts transactions this instance's crash windows destroyed
	// (in-flight, queued and backing off).
	CrashLost int `json:"crash_lost"`
	// Completed and Misses count transactions finished here and those that
	// finished past their deadline.
	Completed int `json:"completed"`
	Misses    int `json:"misses"`
	// Busy is the time this instance's server spent serving.
	Busy float64 `json:"busy"`
}

// Result is the outcome of one cluster run.
type Result struct {
	// Summary aggregates the completed transactions exactly like a
	// single-backend run; permanently lost transactions are excluded from
	// its tardiness aggregates (they are counted in Summary.Shed alongside
	// admission sheds, and separated again here).
	Summary *metrics.Summary
	// Routes counts routing decisions for fresh arrivals; Failovers counts
	// crash-lost transactions re-enqueued to survivors; Lost counts
	// transactions dropped for good (budget exhausted or NoFailover).
	Routes    int `json:"routes"`
	Failovers int `json:"failovers"`
	Lost      int `json:"lost"`
	// Shed counts admission-controller rejections (Summary.Shed - Lost).
	Shed int `json:"shed"`
	// Misses counts completions past their deadline, across instances.
	Misses int `json:"misses"`
	// Ejections and Recoveries count circuit-breaker transitions.
	Ejections  int `json:"ejections"`
	Recoveries int `json:"recoveries"`
	// Instances holds the per-instance breakdown, in index order.
	Instances []InstanceResult `json:"instances"`
	// SLO holds each instance's final SLO engine state, in index order; nil
	// when Config.SLO was unset.
	SLO []slo.State `json:"slo,omitempty"`
}

// EffectiveMissRatio is the SLA measure the failover gate is judged on: a
// permanently lost transaction is an unbounded SLA violation, so it counts
// as a miss over the population the cluster accepted (completed + lost).
// Admission sheds are excluded, exactly as in metrics.Summary.MissRatio.
func (r *Result) EffectiveMissRatio() float64 {
	served := r.Summary.N + r.Lost
	if served == 0 {
		return 0
	}
	return float64(r.Misses+r.Lost) / float64(served)
}

// retryEntry is one crash-lost transaction waiting out its failover backoff.
type retryEntry struct {
	at   float64
	t    *txn.Transaction
	from int // instance the transaction was lost on
}

// Sim is a reusable cluster engine bound to one Config, mirroring sim.New.
type Sim struct {
	cfg Config
}

// New returns a cluster engine bound to cfg. Configuration errors surface
// on Run.
func New(cfg Config) *Sim { return &Sim{cfg: cfg} }

// Run routes set across the fleet to completion and returns the result.
// The workload must be dependency-free: the routing tier places individual
// transactions, and per-instance schedulers never observe completions on
// other instances, so a cross-instance dependency could never become ready
// (workflow-colocated routing is future work — see docs/ROBUSTNESS.md).
func (e *Sim) Run(set *txn.Set) (*Result, error) {
	cfg := e.cfg
	retry, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	n := set.Len()
	for _, t := range set.Txns {
		if len(t.Deps) > 0 {
			return nil, fmt.Errorf("cluster: transaction %d has dependencies; the cluster tier routes independent transactions only", t.ID)
		}
	}
	set.ResetAll()

	policy := cfg.Policy
	if policy == nil {
		policy = NewRoundRobin()
	}
	rec := newRecorder(cfg.Sink, cfg.Metrics)

	// newSched builds one instance's scheduler: at construction and again
	// after every crash, because a crash is a process restart — the drained
	// scheduler's internal bookkeeping (e.g. ASETS*'s checked-out set) must
	// not survive into the revived instance, or a transaction failing over
	// back to it would be stuck half-checked-out forever.
	newSched := func() sched.Scheduler {
		s := cfg.NewScheduler()
		s.Init(set)
		// Policies that narrate their internal decisions (ASETS* aging and
		// mode switches) emit straight into the ordered cluster stream.
		if ss, ok := s.(sched.SinkSetter); ok && cfg.Sink != nil {
			ss.SetSink(rec.sink)
		}
		return s
	}

	insts := make([]*instance, cfg.Instances)
	for i := range insts {
		inst := &instance{idx: i, name: strconv.Itoa(i), stallSeen: -1, crashSeen: -1}
		inst.sched = newSched()
		if cfg.NewAdmit != nil {
			inst.ctrl = cfg.NewAdmit()
		}
		if len(cfg.Faults) > 0 && !cfg.Faults[i].Zero() {
			inst.inj = fault.NewInjector(cfg.Faults[i], n)
		}
		inst.val = contention.NewValidator(set)
		if cfg.SLO != nil {
			sc := *cfg.SLO
			sc.Instance = inst.name
			inst.slo = slo.NewEngine(sc, cfg.Metrics)
			// Alerts funnel through the recorder's sink unbatched on the
			// engine goroutine, like every other routed decision event.
			inst.slo.Bind(rec.sink)
		}
		insts[i] = inst
	}

	// Arrival order: by time, ties by ID.
	order := make([]*txn.Transaction, n)
	copy(order, set.Txns)
	sort.SliceStable(order, func(i, j int) bool {
		if order[i].Arrival != order[j].Arrival {
			return order[i].Arrival < order[j].Arrival
		}
		return order[i].ID < order[j].ID
	})

	maxSteps := cfg.MaxSteps
	if maxSteps == 0 {
		scale, windows := 1+retry.Budget, 0
		for _, p := range cfg.Faults {
			if p == nil {
				continue
			}
			if p.MaxRestarts > scale-1-retry.Budget {
				scale = 1 + retry.Budget + p.MaxRestarts
			}
			windows += len(p.Stalls)
		}
		maxSteps = (8*n+64)*scale + 16*windows + 64*cfg.Instances
	}
	if contention.HasKeys(set) {
		// Validation failures re-execute from scratch; each failure needs a
		// distinct conflicting commit inside the victim's open window, so a
		// per-instance population of at most n bounds the extra steps
		// quadratically (same bound as the single-backend simulator).
		maxSteps = 2*maxSteps + 2*n*n
	}

	var (
		now        float64
		nextArr    int
		done       int
		shedCnt    int
		lost       int
		routes     int
		failovers  int
		ejections  int
		recoveries int
		steps      int
		owner      = make([]int, n) // current instance per transaction, -1 when unrouted
		fails      = make([]int, n) // failovers consumed per transaction
		retries    []retryEntry     // sorted by (at, id)
		pendingArr []*txn.Transaction
		views      = make([]InstanceView, cfg.Instances)
		victims    []*txn.Transaction
		restarts   []*txn.Transaction // Injector.PopDueRestarts buffer
	)
	for i := range owner {
		owner[i] = -1
	}

	healthyCount := func() int {
		h := 0
		for _, inst := range insts {
			if !inst.ejected {
				h++
			}
		}
		return h
	}
	buildViews := func() []InstanceView {
		for i, inst := range insts {
			views[i] = inst.view(now)
		}
		return views
	}
	pick := func(t *txn.Transaction) (int, error) {
		j := policy.Pick(buildViews())
		if j == -1 {
			return -1, nil
		}
		if j < 0 || j >= len(insts) || insts[j].ejected {
			return 0, fmt.Errorf("cluster: policy %q picked invalid instance %d for transaction %d", policy.Name(), j, t.ID)
		}
		return j, nil
	}
	pushRetry := func(at float64, t *txn.Transaction, from int) {
		i := sort.Search(len(retries), func(i int) bool {
			if retries[i].at != at {
				return retries[i].at > at
			}
			return retries[i].t.ID > t.ID
		})
		retries = append(retries, retryEntry{})
		copy(retries[i+1:], retries[i:])
		retries[i] = retryEntry{at: at, t: t, from: from}
	}
	// earliestReopen is the deferral instant when every instance is ejected.
	earliestReopen := func() float64 {
		at := math.Inf(1)
		for _, inst := range insts {
			if inst.ejected && inst.reopenAt < at {
				at = inst.reopenAt
			}
		}
		return at
	}
	// deliverTo lands t on instance j's queue (failover or deferred/fresh
	// arrival, after any admission decision).
	deliverTo := func(j int, t *txn.Transaction) {
		inst := insts[j]
		owner[t.ID] = j
		inst.queued++
		inst.backlog += t.Remaining
		inst.delivered = true
		if inst.slo != nil {
			inst.slo.Arrive(obs.WeightClassIndex(t.Weight))
		}
		inst.sched.OnArrival(now, t)
	}
	// admitAt consults instance j's controller for a fresh arrival; it
	// returns false when the transaction was shed.
	admitAt := func(j int, t *txn.Transaction) bool {
		inst := insts[j]
		if inst.ctrl == nil {
			return true
		}
		running := 0
		if inst.running != nil {
			running = 1
		}
		held := 0
		if inst.inj != nil {
			held = inst.inj.Held()
		}
		st := admit.State{
			Now: now, Queued: inst.queued + held, Running: running, Servers: 1,
			Backlog: inst.backlog, Completed: inst.completed, Misses: inst.misses,
		}
		if inst.ctrl.Admit(t, st) {
			return true
		}
		t.Shed = true
		shedCnt++
		rec.Shed(now, t, inst.ctrl.Name())
		return false
	}
	// routeOne places one transaction that is free to go anywhere. It
	// returns false when no instance is routable (caller defers).
	routeOne := func(t *txn.Transaction) (bool, error) {
		j, err := pick(t)
		if err != nil {
			return false, err
		}
		if j == -1 {
			return false, nil
		}
		rec.Route(now, t, insts[j].name)
		routes++
		if !admitAt(j, t) {
			return true, nil
		}
		insts[j].routed++
		rec.Arrival(now, t)
		deliverTo(j, t)
		return true, nil
	}
	publish := func(finished bool) {
		if cfg.Status == nil {
			return
		}
		cfg.Status.publish(now, finished, insts, fleetTotals{
			routes: routes, failovers: failovers, lost: lost,
			ejections: ejections, recoveries: recoveries, done: done, shed: shedCnt,
		})
	}

	for done+shedCnt+lost < n {
		steps++
		if steps > maxSteps {
			return nil, fmt.Errorf("cluster: exceeded %d scheduling steps with %d/%d transactions complete (scheduler or policy livelock?)", maxSteps, done, n)
		}
		publish(false)

		// Fill idle, serving instances.
		for _, inst := range insts {
			if inst.running != nil || inst.ejected {
				continue
			}
			if _, _, stalled := inst.inStall(now); stalled {
				continue
			}
			t := inst.sched.Next(now)
			if t == nil {
				continue
			}
			if t.Finished {
				return nil, fmt.Errorf("cluster: instance %d scheduler returned finished transaction %d", inst.idx, t.ID)
			}
			if t.Arrival > now {
				return nil, fmt.Errorf("cluster: instance %d scheduler returned transaction %d before its arrival (%v > %v)", inst.idx, t.ID, t.Arrival, now)
			}
			t.Started = true
			if inst.val != nil {
				inst.val.Begin(t)
			}
			inst.queued--
			inst.running = t
			rec.Dispatch(now, t, inst.name)
		}

		// Next event: earliest completion, arrival, failover re-enqueue,
		// restart expiry, outage window boundary or breaker reopen.
		event := math.Inf(1)
		for _, inst := range insts {
			if inst.running != nil {
				if f := now + inst.running.Remaining; f < event {
					event = f
				}
			}
			if inst.inj != nil {
				if r := inst.inj.NextRestart(); r < event {
					event = r
				}
				if w, _, ok := inst.inj.InStall(now); ok {
					if w.End() < event {
						event = w.End()
					}
				} else if ss := inst.inj.NextStallStart(now); ss < event {
					event = ss
				}
			}
			if inst.ejected && inst.reopenAt > now && inst.reopenAt < event {
				event = inst.reopenAt
			}
		}
		if nextArr < n && order[nextArr].Arrival < event {
			event = order[nextArr].Arrival
		}
		if len(retries) > 0 && retries[0].at < event {
			event = retries[0].at
		}
		if math.IsInf(event, 1) {
			return nil, fmt.Errorf("cluster: no ready transaction and no future events with %d/%d transactions complete", done+shedCnt+lost, n)
		}
		if event < now {
			event = now
		}
		if event > now && cfg.Pace != nil {
			if err := cfg.Pace(event); err != nil {
				return nil, err
			}
		}

		// Advance every running server to the event.
		dt := event - now
		if dt > 0 {
			for _, inst := range insts {
				if inst.running != nil {
					inst.running.Remaining -= dt
					inst.busy += dt
					inst.backlog -= dt
				}
			}
		}
		now = event

		// Window boundaries this advance crossed: every instance's SLO
		// engine closes its tumbling windows now, in index order, so alert
		// transitions (stamped with the boundary time) enter the routed
		// stream before any event of the new instant.
		if cfg.SLO != nil {
			for _, inst := range insts {
				inst.slo.Advance(now)
			}
		}

		// Completions (or keyed aborts) per instance, in index order.
		for _, inst := range insts {
			t := inst.running
			if t == nil || t.Remaining > sim.CompletionEpsilon {
				continue
			}
			inst.running = nil
			if inst.val != nil && !inst.val.CommitCheck(t) {
				// Read-set invalidated by a concurrent commit on this
				// instance: rewind and requeue for a fresh incarnation,
				// exactly like the single-backend validate-fail path.
				inst.backlog += t.Length - t.Remaining
				t.Remaining = t.Length
				rec.ValidateFail(now, t, inst.name)
				inst.queued++
				inst.delivered = true
				inst.sched.OnPreempt(now, t)
				continue
			}
			if inst.val == nil && inst.inj != nil && inst.inj.AbortsAttempt(t) {
				inst.backlog += t.Length - t.Remaining
				t.Remaining = t.Length
				retryAt := inst.inj.RecordAbort(now, t)
				rec.Abort(now, t, "abort", retryAt)
				continue
			}
			inst.backlog -= t.Remaining
			t.Remaining = 0
			t.Finished = true
			t.FinishTime = now
			done++
			inst.completed++
			inst.halfOpen = false // a completion confirms recovery
			owner[t.ID] = -1
			inst.sched.OnCompletion(now, t)
			tard := t.Tardiness()
			if tard > 0 {
				inst.misses++
			}
			rec.Completion(now, t)
			if inst.slo != nil {
				inst.slo.Complete(obs.WeightClassIndex(t.Weight), tard, now-t.Arrival)
			}
			if inst.ctrl != nil {
				inst.ctrl.Complete(t, tard > 0)
				inst.degraded = inst.ctrl.Degraded()
			}
		}

		// Outage windows opening at this instant: stalls preempt the
		// running transaction back (progress preserved); a crash destroys
		// the whole instance — in-flight, queued and backing-off work — and
		// the breaker ejects it from the routing set.
		for _, inst := range insts {
			w, idx, ok := inst.inStall(now)
			if !ok {
				continue
			}
			if idx != inst.stallSeen {
				inst.stallSeen = idx
				inst.inj.RecordStallEntered()
				rec.StallEntered(now, w, inst.name)
			}
			if w.Kind == fault.Crash && idx != inst.crashSeen {
				inst.crashSeen = idx
				victims = victims[:0]
				if inst.running != nil {
					victims = append(victims, inst.running)
					inst.running = nil
				}
				for {
					t := inst.sched.Next(now)
					if t == nil {
						break
					}
					victims = append(victims, t)
				}
				victims = append(victims, inst.inj.DrainHeld()...)
				sort.Slice(victims, func(i, j int) bool { return victims[i].ID < victims[j].ID })
				inst.queued = 0
				inst.backlog = 0
				// Process restart: the revived instance gets a fresh
				// scheduler, so no drained transaction's bookkeeping leaks
				// into its next life.
				inst.sched = newSched()
				for _, t := range victims {
					inst.crashLost++
					inst.inj.RecordCrashLoss(t)
					rec.Abort(now, t, "crash", now)
					if inst.slo != nil {
						// The crash removed the transaction from this fault
						// domain; a failover re-arrives it on the survivor.
						inst.slo.Drop(obs.WeightClassIndex(t.Weight))
					}
					t.Remaining = t.Length // new incarnation, arrival preserved
					if inst.val != nil {
						// The in-flight incarnation dies with the process;
						// committed versions survive the restart.
						inst.val.Reset(t)
					}
					owner[t.ID] = -1
					if cfg.NoFailover || fails[t.ID] >= retry.Budget {
						lost++
						t.Shed = true
						rec.Lost(now, t)
						continue
					}
					fails[t.ID]++
					pushRetry(now+retry.backoff(fails[t.ID]), t, inst.idx)
				}
				if !inst.ejected {
					inst.ejected = true
					inst.halfOpen = false
					ejections++
				}
				if at := w.End() + cfg.RecoveryCooldown; at > inst.reopenAt {
					inst.reopenAt = at
				}
				rec.Eject(now, inst.name, healthyCount())
				continue
			}
			if inst.running != nil {
				// Stall: preemptive-resume — the transaction keeps its
				// progress and waits out the window in the queue.
				rec.Preempt(now, inst.running)
				inst.queued++
				inst.sched.OnPreempt(now, inst.running)
				inst.running = nil
			}
		}

		// Breaker recoveries: an ejected instance whose reopen instant
		// passed (and whose outage is over) half-opens back into the
		// routing set.
		for _, inst := range insts {
			if !inst.ejected || now < inst.reopenAt {
				continue
			}
			if _, _, stalled := inst.inStall(now); stalled {
				continue
			}
			inst.ejected = false
			inst.halfOpen = true
			recoveries++
			rec.Recover(now, inst.name, healthyCount())
		}

		// Keyed-abort restarts return to their own instance's queue.
		for _, inst := range insts {
			if inst.inj == nil {
				continue
			}
			restarts = inst.inj.PopDueRestarts(now, restarts[:0])
			for _, t := range restarts {
				rec.Restart(now, t)
				inst.queued++
				inst.delivered = true
				inst.sched.OnPreempt(now, t)
			}
		}

		// Failover re-enqueues whose backoff expired: route each to a
		// surviving instance, or defer until one exists.
		due := 0
		for due < len(retries) && retries[due].at <= now {
			due++
		}
		if due > 0 {
			batch := retries[:due:due]
			retries = retries[due:]
			for _, re := range batch {
				j, err := pick(re.t)
				if err != nil {
					return nil, err
				}
				if j == -1 {
					at := earliestReopen()
					if math.IsInf(at, 1) {
						return nil, fmt.Errorf("cluster: transaction %d has no surviving instance to fail over to", re.t.ID)
					}
					pushRetry(at, re.t, re.from)
					continue
				}
				inst := insts[j]
				inst.failoversIn++
				failovers++
				rec.Failover(now, re.t, inst.name+"<-"+insts[re.from].name)
				deliverTo(j, re.t)
			}
		}

		// Arrivals deferred while the whole fleet was ejected, then fresh
		// arrivals due at this instant.
		if len(pendingArr) > 0 && healthyCount() > 0 {
			still := pendingArr[:0]
			for i, t := range pendingArr {
				routedOK, err := routeOne(t)
				if err != nil {
					return nil, err
				}
				if !routedOK {
					still = append(still, pendingArr[i:]...)
					break
				}
			}
			pendingArr = still
		}
		for nextArr < n && order[nextArr].Arrival <= now {
			t := order[nextArr]
			nextArr++
			routedOK, err := routeOne(t)
			if err != nil {
				return nil, err
			}
			if !routedOK {
				pendingArr = append(pendingArr, t)
			}
		}

		// Instances that received work re-decide: the running transaction
		// bounces back so the next fill dispatches the highest priority,
		// exactly like the single-backend preemptive model.
		for _, inst := range insts {
			if !inst.delivered {
				continue
			}
			inst.delivered = false
			if inst.running != nil {
				rec.Preempt(now, inst.running)
				inst.queued++
				inst.sched.OnPreempt(now, inst.running)
				inst.running = nil
			}
		}
	}

	// Close out the SLO engines: final gauge publication only — the open
	// partial window is never evaluated (docs/OBSERVABILITY.md).
	if cfg.SLO != nil {
		for _, inst := range insts {
			inst.slo.Finish()
		}
	}

	var busy float64
	for _, inst := range insts {
		busy += inst.busy
	}
	summary, err := metrics.Compute(set, busy)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Summary: summary,
		Routes:  routes, Failovers: failovers, Lost: lost, Shed: shedCnt,
		Ejections: ejections, Recoveries: recoveries,
		Instances: make([]InstanceResult, len(insts)),
	}
	for i, inst := range insts {
		if inst.inj != nil {
			summary.Aborts += inst.inj.Aborts()
			summary.Restarts += inst.inj.Restarts()
			summary.Stalls += inst.inj.StallsEntered()
		}
		if inst.val != nil {
			summary.ValidateFails += inst.val.Fails()
		}
		res.Misses += inst.misses
		res.Instances[i] = InstanceResult{
			Routed: inst.routed, FailoversIn: inst.failoversIn,
			CrashLost: inst.crashLost, Completed: inst.completed,
			Misses: inst.misses, Busy: inst.busy,
		}
		if inst.slo != nil {
			res.SLO = append(res.SLO, inst.slo.State())
		}
	}
	publish(true)
	return res, nil
}
