// Package sim implements the RTDBMS discrete-event simulator the paper's
// evaluation runs on (Section IV-A built it in C++; this is the Go
// reproduction). The model is a backend database executing transactions
// under preemptive-resume scheduling — one server in the paper's
// experiments, optionally several identical servers as an extension (a
// replicated web-database backend). The scheduler is consulted only at the
// two event types ASETS* needs — transaction arrival and transaction
// completion — and the chosen transactions run until the next such event.
//
// The entry point is one configuration type and one constructor:
//
//	summary, err := sim.New(sim.Config{Servers: 2}).Run(set, scheduler)
//
// One event loop serves every single-backend run mode, fed by one of two
// arrival sources: Run delivers a fixed set in arrival order, and
// Sim.RunClosedLoop releases a session's next page when the page before it
// completes. The live executor (internal/executor) is a thin adapter over
// the same loop: Sim.RunPaced hands it a pacing callback, which sleeps
// toward each event's wall-clock instant, and a progress callback, which
// publishes the loop's counters. Every mode therefore shares one validated
// configuration and one event order.
//
// Optional layers extend the paper's fault-free model: a deterministic
// fault injector (Config.Faults) contributes abort/restart, backend
// stall/crash and flash-crowd events, and an admission controller
// (Config.Admit) may shed arrivals before they reach the scheduler (see
// docs/ROBUSTNESS.md). A workload whose transactions carry read/write sets
// (docs/CONTENTION.md) automatically enables commit-time validation:
// aborts become contention-driven — a transaction whose reads were
// overwritten while it ran is rewound and re-executed — replacing the
// injector's random abort draws. All layers are driven purely by simulated
// time and seeded draws, so a fixed seed replays bit-identically; with none
// configured the event loop is byte-for-byte the paper's original model.
package sim

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/admit"
	"repro/internal/contention"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/slo"
	"repro/internal/trace"
	"repro/internal/txn"
)

// Config configures a Sim. The zero value is a valid single-server,
// uninstrumented, fault-free run.
type Config struct {
	// Recorder, when non-nil, receives every execution slice for later
	// validation or visualization.
	Recorder *trace.Recorder
	// Servers is the number of identical backend servers (default 1, the
	// paper's model). With S servers the scheduler's S highest-priority
	// transactions run concurrently under global preemptive scheduling.
	Servers int
	// MaxSteps bounds the number of scheduling decisions as a safety net
	// against a buggy scheduler that spins without progress. Zero selects a
	// generous default proportional to the workload size (and to the fault
	// plan's restart budget).
	MaxSteps int
	// Sink, when non-nil, receives the typed decision-event stream
	// (arrivals, dispatches, preemptions, completions, deadline misses,
	// plus policy-internal aging and mode-switch events and — with faults
	// or admission control — abort/restart/stall/shed/degrade events)
	// stamped with simulated time. Nil disables event emission entirely.
	Sink obs.Sink
	// Metrics, when non-nil, accumulates the run's counters and histograms
	// (see docs/OBSERVABILITY.md for the metric taxonomy). Concurrent runs
	// must each use a private registry (docs/PARALLELISM.md).
	Metrics *obs.Registry
	// Faults, when non-nil, is the validated fault plan the run executes: a
	// fresh fault.Injector is built per run, so the same plan subjects
	// every policy to the identical fault schedule. The plan's flash-crowd
	// bursts mutate the set's arrival times in place (idempotently).
	// Open-loop runs only: bursts are defined over fixed arrival times.
	Faults *fault.Plan
	// Admit, when non-nil, is consulted on every arrival; rejected
	// transactions are marked Shed, never reach the scheduler, and are
	// excluded from the summary's tardiness aggregates. Feedback
	// controllers carry state — build a fresh one per run. Open-loop runs
	// only: cascade shedding needs every dependency delivered before its
	// dependents, which fixed arrival times guarantee.
	Admit admit.Controller
	// Patience is the closed-loop page-abandonment bound: a page whose
	// render latency exceeds it counts as abandoned (0 disables the
	// bound). Only RunClosedLoop consults it.
	Patience float64
	// SLO, when non-nil, evaluates the run against per-class objectives:
	// the event stream is folded through an slo.Engine whose
	// alert_fire/alert_resolve transitions are injected into Sink in
	// stream order at tumbling-window boundaries, and whose gauges
	// register in Metrics (docs/OBSERVABILITY.md, "SLOs and alerting").
	// Requires a Sink or a Metrics registry to be observable.
	SLO *slo.Config
}

// servers validates and defaults the server count. The validation runs on
// the raw configured value, before defaulting, so Servers: -1 is rejected on
// the same path for every run mode (a regression here once let negative
// counts reach the event loop only because zero happened to default first).
func (c Config) servers() (int, error) {
	if c.Servers < 0 {
		return 0, fmt.Errorf("sim: servers %d must be positive", c.Servers)
	}
	if c.Servers == 0 {
		return 1, nil
	}
	return c.Servers, nil
}

// Sim is a reusable simulation engine bound to one Config. It holds no
// per-run state: the same Sim may execute many workloads sequentially, and
// distinct Sims run concurrently as long as they do not share a Config's
// Recorder, Sink or Metrics (see docs/PARALLELISM.md for the isolation
// contract the parallel runner enforces).
type Sim struct {
	cfg Config

	sloState *slo.State // captured after the last Run when cfg.SLO is set
}

// New returns a Sim bound to cfg. Configuration errors (negative server
// counts, invalid fault plans) surface on the first Run, where they can be
// reported per workload.
func New(cfg Config) *Sim {
	return &Sim{cfg: cfg}
}

// SLOState returns the per-class SLO evaluation of the most recent Run, or
// nil when Config.SLO is unset (or before the first Run). The state is the
// engine's final snapshot: alert counts, burn ratios and error-budget
// remainders per class (docs/OBSERVABILITY.md, "SLOs and alerting").
func (e *Sim) SLOState() *slo.State { return e.sloState }

// CompletionEpsilon absorbs float64 error when a slice boundary lands
// numerically on a completion instant: a transaction with at most this much
// work left completes. The cluster engine uses the same tolerance.
const CompletionEpsilon = 1e-9

// Progress is the loop's state as RunPaced publishes it, and the live
// executor's Stats.
type Progress struct {
	Now float64 // current simulated time
	// Submitted counts arrivals handed to the scheduler (shed arrivals never
	// are); Completed, Misses and Shed count completions, deadline overruns
	// and arrivals the admission controller rejected.
	Submitted, Completed, Misses, Shed int
	// Running is the ID of the first server's transaction, or -1.
	Running txn.ID
	// SumTardiness and MaxTardiness aggregate finished transactions.
	SumTardiness, MaxTardiness float64
	// Aborts, Restarts and Stalls count injected faults, Held the aborted
	// transactions waiting out a backoff, and ValidateFails the commit-time
	// validation failures (contention-driven re-executions).
	Aborts, Restarts, Stalls, Held, ValidateFails int
	// Backlog is the remaining work (simulated units) over admitted
	// unfinished transactions — the quantity feasibility admission reasons
	// about, and the basis of the server's Retry-After hint.
	Backlog  float64
	Degraded bool // the admission controller is in degradation mode
}

// AvgTardiness returns the running average tardiness of completed
// transactions.
func (p Progress) AvgTardiness() float64 {
	if p.Completed == 0 {
		return 0
	}
	return p.SumTardiness / float64(p.Completed)
}

// Run simulates set to completion under scheduler s and returns the
// performance summary. The transactions in set are reset first, so a
// workload can be replayed under many policies.
//
// Run enforces the check-out protocol documented on sched.Scheduler: every
// transaction obtained from Next is returned through OnPreempt or
// OnCompletion before the next Next call burst, and arrivals are delivered
// only while no transaction is checked out. An aborted transaction is the
// one exception: it stays checked out while it waits out its backoff and is
// returned through OnPreempt (with its remaining time reset) when the
// backoff expires.
func (e *Sim) Run(set *txn.Set, s sched.Scheduler) (*metrics.Summary, error) {
	return e.run(set, s, hooks{})
}

// RunPaced is Run with a wall clock attached: the adapter the live executor
// drives the event loop through. Before every advance of simulated time to
// next, the loop publishes its state through progress, delivers staged
// events to the sinks, and calls pace(next), which may sleep toward next's
// wall-clock instant; a pace error (a cancelled context) ends the run and is
// returned as is. progress also runs after every completion, with the
// finished transaction, and once more when the run ends. Decisions depend
// only on simulated time, so a paced run makes exactly Run's schedule.
func (e *Sim) RunPaced(set *txn.Set, s sched.Scheduler, pace func(next float64) error, progress func(p Progress, done *txn.Transaction)) (*metrics.Summary, error) {
	return e.run(set, s, hooks{pace: pace, progress: progress})
}

// MustRun is Run but panics on error; for examples and benchmarks where a
// failure indicates a bug rather than a recoverable condition.
func (e *Sim) MustRun(set *txn.Set, s sched.Scheduler) *metrics.Summary {
	summary, err := e.Run(set, s)
	if err != nil {
		panic(err)
	}
	return summary
}

// hooks are what a run mode adds to the shared loop; the zero value is Run.
type hooks struct {
	// sessions, when non-nil, is the closed-loop arrival source.
	sessions *sessionSource
	pace     func(next float64) error
	progress func(p Progress, done *txn.Transaction)
}

// run wires the configured layers around s, drives the event loop, and
// summarizes the finished set.
func (e *Sim) run(set *txn.Set, s sched.Scheduler, h hooks) (*metrics.Summary, error) {
	cfg := e.cfg
	n := set.Len()
	l := &loop{set: set, trace: cfg.Recorder, ctrl: cfg.Admit, hooks: h, stallSeen: -1}
	var err error
	if l.servers, err = cfg.servers(); err != nil {
		return nil, err
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		l.inj = fault.NewInjector(cfg.Faults, n)
		cfg.Faults.ApplyBursts(set)
	}
	if l.ctrl != nil {
		// Shedding cascades to dependents (a shed dependency can never
		// complete, so its dependents would deadlock the scheduler), which
		// requires dependencies to be delivered before their dependents.
		if err := admit.CheckArrivalOrder(set); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
	}
	set.ResetAll()
	// The SLO engine wraps the configured sink so it sees the event stream
	// exactly as emitted and injects alert transitions in stream order;
	// the recorder emits through the wrapper.
	sink := cfg.Sink
	var sloSink *slo.Sink
	if cfg.SLO != nil {
		if err := cfg.SLO.Validate(); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		sloSink = slo.NewSink(slo.NewEngine(*cfg.SLO, cfg.Metrics), set, sink)
		sink = sloSink
	}
	// A workload with read/write sets switches on the contention model:
	// commit-time validation with re-execution replaces the injector's
	// random abort draws (docs/CONTENTION.md). NewValidator returns nil for
	// plain workloads, keeping them on the exact pre-contention path.
	l.val = contention.NewValidator(set)
	var layers obs.Layers
	if l.inj != nil || l.ctrl != nil {
		layers |= obs.LayerFault
	}
	if l.val != nil {
		layers |= obs.LayerContention
	}
	// With neither a sink nor a registry the recorder is nil and every
	// recording call returns at once.
	l.rec = obs.NewRecorder(sink, cfg.Metrics, layers)
	if ss, ok := s.(sched.SinkSetter); ok && l.rec != nil {
		// Policy-internal events join the stream in emission order.
		ss.SetSink(l.rec)
	}
	s.Init(set)
	l.s = s

	if h.sessions != nil {
		l.order = make([]*txn.Transaction, 0, n)
		h.sessions.start(l)
	} else {
		// Arrival order: by time, ties by ID for determinism.
		l.order = make([]*txn.Transaction, n)
		copy(l.order, set.Txns)
		sort.SliceStable(l.order, func(i, j int) bool {
			if l.order[i].Arrival != l.order[j].Arrival {
				return l.order[i].Arrival < l.order[j].Arrival
			}
			return l.order[i].ID < l.order[j].ID
		})
	}
	l.running = make([]*txn.Transaction, 0, l.servers)

	l.maxSteps = cfg.MaxSteps
	if l.maxSteps == 0 {
		// Every iteration either completes a transaction, consumes an
		// arrival, or idles toward one; 8n+64 leaves ample slack. Aborts
		// re-execute transactions and stall windows add boundary events, so
		// a fault plan scales the budget up.
		l.maxSteps = 8*n + 64
		if l.inj != nil {
			l.maxSteps = l.maxSteps*(1+cfg.Faults.MaxRestarts) + 16*len(cfg.Faults.Stalls)
		}
		if l.val != nil {
			// Every validation failure re-executes a transaction from
			// scratch; the structural bound is one failure per other
			// transaction's commit inside the open window (quadratic only
			// under total overlap).
			l.maxSteps = 2*l.maxSteps + 2*n*n
		}
	}

	err = l.run()
	// Drain the recorder before any reader can snapshot the registry —
	// callers observe the post-run state, never a partial batch, even when
	// a paced run was cancelled.
	l.rec.Flush()
	if sloSink != nil {
		// Final gauge publication; the open partial window is never
		// evaluated (the slo package's determinism contract).
		sloSink.Engine().Finish()
		st := sloSink.Engine().State()
		e.sloState = &st
	}
	if err != nil {
		return nil, err
	}
	summary, err := metrics.Compute(set, l.busy)
	if err != nil {
		return nil, err
	}
	if l.inj != nil {
		summary.Aborts = l.inj.Aborts()
		summary.Restarts = l.inj.Restarts()
		summary.Stalls = l.inj.StallsEntered()
	}
	if l.val != nil {
		summary.ValidateFails = l.val.Fails()
	}
	return summary, nil
}

// loop is one run's event-loop state, shared by every run mode.
type loop struct {
	hooks
	set      *txn.Set
	s        sched.Scheduler
	rec      *obs.Recorder // decision events and counts; nil when unobserved
	servers  int
	maxSteps int

	trace *trace.Recorder
	inj   *fault.Injector
	ctrl  admit.Controller
	val   *contention.Validator

	// order holds the transactions in delivery order, consumed from next
	// on: the whole set sorted by arrival, or — in a closed loop — the
	// pages released so far.
	order []*txn.Transaction
	next  int

	running  []*txn.Transaction
	restarts []*txn.Transaction // Injector.PopDueRestarts buffer
	done     int
	shed     int
	misses   int
	admitted int
	backlog  float64 // remaining work over admitted unfinished transactions
	busy     float64
	sumTard  float64
	maxTard  float64
	degraded bool
	// stallSeen marks the outage windows whose entry was recorded, so the
	// stall event fires exactly once per window hit.
	stallSeen int
}

// run is the event loop every run mode shares: the decision loop ROADMAP
// item 2 wants allocation-free. The hotpath marker makes asetslint enforce
// that transitively over everything the loop reaches, including every
// scheduling policy behind the Scheduler interface and every Sink behind the
// observer.
//
//lint:hotpath
func (l *loop) run() error {
	n := l.set.Len()
	now := 0.0
	steps := 0
	running := l.running[:0]
	for l.done+l.shed < n {
		steps++
		if steps > l.maxSteps {
			//lint:ignore hotpath-alloc cold error exit: livelock detection aborts the run
			return fmt.Errorf("sim: exceeded %d scheduling steps with %d/%d transactions complete (scheduler livelock?)", l.maxSteps, l.done, n)
		}

		// Stalled backend: time passes, arrivals queue and backoffs expire,
		// but nothing is dispatched or makes progress until the window ends
		// (running is always empty here — the window's opening preempted
		// everything back to the scheduler).
		if l.inj != nil {
			if w, idx, ok := l.inj.InStall(now); ok {
				l.enterStall(now, w, idx)
				event := w.End()
				if a := l.nextArrival(); a < event {
					event = a
				}
				if r := l.inj.NextRestart(); r < event {
					event = r
				}
				if err := l.advance(now, event, running); err != nil {
					return err
				}
				now = event
				l.deliverRestarts(now)
				l.deliver(now)
				continue
			}
		}

		// Fill the free servers.
		for len(running) < l.servers {
			t := l.s.Next(now)
			if t == nil {
				break
			}
			l.rec.Dispatch(now, t, "")
			if t.Finished {
				//lint:ignore hotpath-alloc cold error exit: scheduler contract violation aborts the run
				return fmt.Errorf("sim: scheduler returned finished transaction %d", t.ID)
			}
			if t.Arrival > now {
				//lint:ignore hotpath-alloc cold error exit: scheduler contract violation aborts the run
				return fmt.Errorf("sim: scheduler returned transaction %d before its arrival (%v > %v)", t.ID, t.Arrival, now)
			}
			for _, other := range running {
				if other == t {
					//lint:ignore hotpath-alloc cold error exit: scheduler contract violation aborts the run
					return fmt.Errorf("sim: scheduler returned transaction %d to two servers", t.ID)
				}
			}
			t.Started = true
			if l.val != nil {
				// Open (or continue) the incarnation: the read snapshot is
				// as old as the incarnation's first dispatch.
				l.val.Begin(t)
			}
			running = append(running, t)
		}

		if len(running) == 0 {
			// Idle until the next arrival, restart expiry or outage window.
			next := l.nextArrival()
			if l.inj != nil {
				if r := l.inj.NextRestart(); r < next {
					next = r
				}
				if ss := l.inj.NextStallStart(now); ss < next {
					next = ss
				}
			}
			if math.IsInf(next, 1) {
				//lint:ignore hotpath-alloc cold error exit: deadlock detection aborts the run
				return fmt.Errorf("sim: no ready transaction and no future arrivals with %d/%d complete (dependency deadlock?)", l.done, n)
			}
			if err := l.advance(now, next, running); err != nil {
				return err
			}
			now = next
			l.deliverRestarts(now)
			l.deliver(now)
			continue
		}

		// Next event: earliest completion among running, next arrival,
		// earliest restart expiry, or the next outage window opening.
		event := now + running[0].Remaining
		for _, t := range running[1:] {
			if f := now + t.Remaining; f < event {
				event = f
			}
		}
		if a := l.nextArrival(); a < event {
			event = a
		}
		if l.inj != nil {
			if r := l.inj.NextRestart(); r < event {
				event = r
			}
			if ss := l.inj.NextStallStart(now); ss < event {
				event = ss
			}
		}
		if err := l.advance(now, event, running); err != nil {
			return err
		}

		// Advance all servers to the event.
		dt := event - now
		for _, t := range running {
			if l.trace != nil && dt > 0 {
				l.trace.Record(t.ID, now, event)
			}
			t.Remaining -= dt
			l.busy += dt
			l.backlog -= dt
		}
		now = event

		// Complete finished transactions — unless the injector aborts the
		// attempt, in which case the transaction restarts from scratch
		// after its backoff; return the rest to the scheduler so the next
		// fill re-decides with fresh state.
		still := running[:0]
		for _, t := range running {
			if t.Remaining > CompletionEpsilon {
				still = append(still, t)
				continue
			}
			if l.val != nil {
				if !l.val.CommitCheck(t) {
					// Contention-driven abort: the read snapshot was
					// invalidated by a commit during the incarnation. Rewind
					// to full length and re-queue immediately — the next
					// dispatch opens a fresh incarnation.
					l.backlog += t.Length - t.Remaining
					t.Remaining = t.Length
					l.rec.ValidateFail(now, t, "")
					l.rec.Preempt(now, t)
					l.s.OnPreempt(now, t)
					continue
				}
			} else if l.inj != nil && l.inj.AbortsAttempt(t) {
				l.backlog += t.Length - t.Remaining
				t.Remaining = t.Length
				retryAt := l.inj.RecordAbort(now, t)
				l.rec.Abort(now, t, "abort", retryAt)
				continue
			}
			l.complete(now, t)
		}

		// An outage window opening at this instant preempts the survivors;
		// a crash window additionally destroys their in-flight work.
		if l.inj != nil {
			if w, idx, ok := l.inj.InStall(now); ok {
				l.enterStall(now, w, idx)
				if w.Kind == fault.Crash {
					for _, t := range still {
						l.backlog += t.Length - t.Remaining
						t.Remaining = t.Length
						if l.val != nil {
							// The in-flight incarnation died with its
							// snapshot; committed versions survive.
							l.val.Reset(t)
						}
						l.inj.RecordCrashLoss(t)
						l.rec.Abort(now, t, "crash", now)
					}
				}
			}
		}
		for _, t := range still {
			l.rec.Preempt(now, t)
			l.s.OnPreempt(now, t)
		}
		running = running[:0]
		l.deliverRestarts(now)
		l.deliver(now)
	}
	if l.progress != nil {
		l.progress(l.snapshot(now, nil), nil)
	}
	return nil
}

// nextArrival returns the next undelivered arrival instant, or +Inf.
func (l *loop) nextArrival() float64 {
	if l.next < len(l.order) {
		return l.order[l.next].Arrival
	}
	return math.Inf(1)
}

// advance is where a paced run meets the wall clock, once per step before
// simulated time moves from now to event: it publishes the loop's state,
// delivers the staged events (so live readers see every decision up to the
// instant the run pauses) and hands event to the pacer.
func (l *loop) advance(now, event float64, running []*txn.Transaction) error {
	if l.pace == nil {
		return nil
	}
	if l.progress != nil {
		l.progress(l.snapshot(now, running), nil)
	}
	l.rec.Flush()
	return l.pace(event)
}

// complete finishes t at now and feeds the completion back to the
// scheduler, the admission controller and the run mode's hooks.
func (l *loop) complete(now float64, t *txn.Transaction) {
	l.backlog -= t.Remaining
	t.Remaining = 0
	t.Finished = true
	t.FinishTime = now
	l.done++
	l.rec.Completion(now, t)
	l.s.OnCompletion(now, t)
	tard := t.Tardiness()
	if tard > 0 {
		l.misses++
	}
	if l.ctrl != nil {
		l.ctrl.Complete(t, tard > 0)
		if d := l.ctrl.Degraded(); d != l.degraded {
			l.degraded = d
			l.rec.Degrade(now, d)
		}
	}
	if l.sessions != nil {
		l.sessions.release(l, now, t)
	}
	if l.progress != nil {
		l.sumTard += tard
		l.maxTard = max(l.maxTard, tard)
		l.progress(l.snapshot(now, nil), t)
	}
}

// deliver hands every arrival due by upTo to the scheduler, consulting the
// admission controller first when one is configured.
func (l *loop) deliver(upTo float64) {
	for l.next < len(l.order) && l.order[l.next].Arrival <= upTo {
		t := l.order[l.next]
		l.next++
		if l.ctrl != nil {
			// Marked by an earlier cascade: a dependency was shed, so this
			// transaction could never become ready.
			if t.Shed {
				l.shed++
				l.rec.Shed(upTo, t, "cascade")
				continue
			}
			st := admit.State{
				Now: upTo, Queued: l.admitted - l.done, Servers: l.servers,
				Backlog: l.backlog, Completed: l.done, Misses: l.misses,
			}
			if !l.ctrl.Admit(t, st) {
				admit.CascadeShed(l.set, t)
				l.shed++
				l.rec.Shed(upTo, t, l.ctrl.Name())
				continue
			}
		}
		l.admitted++
		l.backlog += t.Remaining
		l.rec.Arrival(upTo, t)
		l.s.OnArrival(upTo, t)
	}
}

// deliverRestarts re-queues the aborted transactions whose backoff expired
// by upTo.
func (l *loop) deliverRestarts(upTo float64) {
	if l.inj == nil {
		return
	}
	l.restarts = l.inj.PopDueRestarts(upTo, l.restarts[:0])
	for _, t := range l.restarts {
		l.rec.Restart(upTo, t)
		l.rec.Preempt(upTo, t)
		l.s.OnPreempt(upTo, t)
	}
}

// enterStall records the outage window's entry event exactly once.
func (l *loop) enterStall(now float64, w fault.Window, idx int) {
	if idx != l.stallSeen {
		l.stallSeen = idx
		l.inj.RecordStallEntered()
		l.rec.Stall(now, w.Duration, w.Kind.String())
	}
}

// held counts aborted transactions waiting out a backoff.
func (l *loop) held() int {
	if l.inj == nil {
		return 0
	}
	return l.inj.Held()
}

// snapshot assembles the published Progress at now.
func (l *loop) snapshot(now float64, running []*txn.Transaction) Progress {
	p := Progress{
		Now: now, Submitted: l.admitted, Completed: l.done, Running: -1,
		SumTardiness: l.sumTard, MaxTardiness: l.maxTard,
		Misses: l.misses, Shed: l.shed, Held: l.held(),
		Backlog: l.backlog, Degraded: l.degraded,
	}
	if len(running) > 0 {
		p.Running = running[0].ID
	}
	if l.inj != nil {
		p.Aborts, p.Restarts, p.Stalls = l.inj.Aborts(), l.inj.Restarts(), l.inj.StallsEntered()
	}
	if l.val != nil {
		p.ValidateFails = l.val.Fails()
	}
	return p
}
