// Package executor runs a scheduling policy over live wall-clock time: the
// online counterpart of the discrete-event simulator. A workload's arrivals
// are replayed in real time (scaled by Options.TimeScale), the configured
// scheduler decides what the single backend "database" executes, and an
// arrival can preempt the running transaction exactly as in the simulator's
// preemptive-resume model.
//
// The executor exists for two reasons. First, it demonstrates that the
// policies in this repository are implementable online — every scheduling
// decision uses only information available at decision time. Second, it
// powers the asetsweb demo server, which exposes a live dashboard of an
// ASETS*-scheduled transaction stream.
//
// The executor has no event loop of its own: it is an adapter that runs the
// simulator's loop through sim.Sim.RunPaced. It hands that loop two
// callbacks. The pacing callback sleeps on the Clock toward each event's
// scheduled wall-clock instant and ends the run when the context does; the
// progress callback publishes Stats and calls Options.OnComplete.
// Scheduling decisions and tardiness bookkeeping therefore run on event
// time, exactly the simulator's decision points, while wall-clock sleeps
// only pace execution. Timer overshoot puts the executor briefly into
// catch-up mode instead of silently injecting extra load, and a paced run
// produces the same schedule, event stream and tardiness as the
// discrete-event simulator on the same workload — a property the tests
// assert byte for byte.
//
// All wall-clock access goes through the Clock seam (Options.Clock): the
// production RealClock paces against the host clock, while the FakeClock
// replays the identical schedule instantly and deterministically. No other
// wall-clock read exists in the executor, keeping the determinism policy of
// docs/DETERMINISM.md intact end to end.
//
// Faults, admission control, contention and SLO alerting
// (docs/ROBUSTNESS.md, docs/CONTENTION.md) are the simulator's layers,
// configured through Options and wired by the shared loop, so a FakeClock
// replay of a fault run is still bit-deterministic.
package executor

import (
	"context"
	"sync"
	"time"

	"repro/internal/admit"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/slo"
	"repro/internal/txn"
)

// DefaultTimeScale is the wall-clock duration of one simulated time unit
// when none is configured: a 1000-transaction Table I workload at
// utilization 0.8 replays in a few seconds.
const DefaultTimeScale = 200 * time.Microsecond

// Options configures an Executor.
type Options struct {
	// TimeScale is the wall-clock duration of one simulated time unit
	// (default DefaultTimeScale).
	TimeScale time.Duration
	// OnComplete, when non-nil, is called from the executor goroutine after
	// every completion with the transaction and its finish time in
	// simulated units.
	OnComplete func(t *txn.Transaction, finish float64)
	// Clock paces the replay. Nil selects RealClock. Injecting a FakeClock
	// makes Run instantaneous and bit-for-bit deterministic — the only
	// wall-clock access in the executor goes through this seam.
	Clock Clock
	// Sink, Metrics, Faults and SLO configure the simulator layers of the
	// same names (sim.Config). Events and alerts are stamped with event time,
	// never with a host-clock read, so a FakeClock replay emits a
	// bit-identical stream; the asetsweb /metrics endpoint exports Metrics
	// live. A fault plan's flash-crowd bursts are applied to the set in New;
	// an invalid plan surfaces as an error from Run.
	Sink    obs.Sink
	Metrics *obs.Registry
	Faults  *fault.Plan
	SLO     *slo.Config
	// Admit, when non-nil, is consulted on every arrival; rejected
	// transactions are marked Shed and never reach the scheduler. All
	// controller calls are serialized under the executor's lock, so Probe
	// may interrogate the same controller from other goroutines.
	Admit admit.Controller
}

// Stats is a point-in-time snapshot of executor progress, safe to read
// while the executor runs: the shared event loop's published state.
type Stats = sim.Progress

// Executor replays one workload through a scheduler in real time. Create
// with New, drive with Run, observe with Stats.
type Executor struct {
	set   *txn.Set
	sched sched.Scheduler
	opts  Options
	sim   *sim.Sim

	mu    sync.Mutex
	ctrl  admit.Controller // guarded by mu: the run loop and Probe both call it
	stats Stats            // guarded by mu
	done  bool             // guarded by mu
}

// New prepares an executor. The scheduler must be freshly constructed (Run
// initializes it) and must not be shared with another executor or
// simulation. A fault plan's flash-crowd bursts mutate the set's arrival
// times here, before Run starts and before a server can publish the
// workload; an invalid plan is reported by Run.
func New(s sched.Scheduler, set *txn.Set, opts Options) *Executor {
	if opts.TimeScale <= 0 {
		opts.TimeScale = DefaultTimeScale
	}
	if opts.Clock == nil {
		opts.Clock = RealClock{}
	}
	opts.Faults.ApplyBursts(set)
	e := &Executor{set: set, sched: s, opts: opts, ctrl: opts.Admit, stats: Stats{Running: -1}}
	cfg := sim.Config{Sink: opts.Sink, Metrics: opts.Metrics, Faults: opts.Faults, SLO: opts.SLO}
	if opts.Admit != nil {
		cfg.Admit = lockedController{mu: &e.mu, Controller: opts.Admit}
	}
	e.sim = sim.New(cfg)
	return e
}

// lockedController serializes the run loop's calls into the admission
// controller with Probe and AdmissionDegraded, which call it from other
// goroutines under the executor's lock.
type lockedController struct {
	mu *sync.Mutex
	admit.Controller
}

// Admit implements admit.Controller.
func (c lockedController) Admit(t *txn.Transaction, st admit.State) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.Controller.Admit(t, st)
}

// Complete implements admit.Controller.
func (c lockedController) Complete(t *txn.Transaction, tardy bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.Controller.Complete(t, tardy)
}

// Degraded implements admit.Controller.
func (c lockedController) Degraded() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.Controller.Degraded()
}

// Stats returns a consistent snapshot of progress.
func (e *Executor) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Done reports whether Run has finished.
func (e *Executor) Done() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.done
}

// Probe evaluates the admission controller against the executor's live state
// for a candidate transaction, without registering anything: the decision the
// controller *would* make if t arrived now. With no controller configured it
// always admits. The server's POST /api/submit endpoint is built on this.
func (e *Executor) Probe(t *txn.Transaction) (bool, Stats) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.ctrl == nil {
		return true, e.stats
	}
	running := 0
	if e.stats.Running >= 0 {
		running = 1
	}
	st := admit.State{
		Now:       e.stats.Now,
		Queued:    e.stats.Submitted - e.stats.Completed - e.stats.Held - running,
		Running:   running,
		Servers:   1,
		Backlog:   e.stats.Backlog,
		Completed: e.stats.Completed,
		Misses:    e.stats.Misses,
	}
	return e.ctrl.Admit(t, st), e.stats
}

// AdmissionDegraded reports whether the admission controller is currently in
// degradation mode (always false without a controller). It asks the
// controller directly, so a controller that starts out degraded is reported
// before the replay's first completion.
func (e *Executor) AdmissionDegraded() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.ctrl == nil {
		return false
	}
	return e.ctrl.Degraded()
}

// Run replays the workload to completion or until ctx is cancelled. It
// returns the number of completed transactions and an error if the context
// ended the run early (ctx's error, with the partial count) or the
// configuration or the scheduler was invalid.
func (e *Executor) Run(ctx context.Context) (int, error) {
	clock, scale := e.opts.Clock, e.opts.TimeScale
	start := clock.Now()
	pace := func(next float64) error {
		d := start.Add(time.Duration(next * float64(scale))).Sub(clock.Now())
		if d <= 0 {
			return ctx.Err()
		}
		return clock.Sleep(ctx, d)
	}
	progress := func(p Stats, done *txn.Transaction) {
		e.mu.Lock()
		e.stats = p
		e.mu.Unlock()
		if done != nil && e.opts.OnComplete != nil {
			e.opts.OnComplete(done, p.Now)
		}
	}
	_, err := e.sim.RunPaced(e.set, e.sched, pace, progress)
	e.mu.Lock()
	defer e.mu.Unlock()
	e.done = true
	e.stats.Running = -1
	return e.stats.Completed, err
}
