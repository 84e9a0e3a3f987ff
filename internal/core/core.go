// Package core implements ASETS*, the paper's primary contribution: a
// parameter-free adaptive scheduling policy for web transactions that
// integrates EDF with HDF (which reduces to SRPT under unit weights),
// operates at the transaction level or the workflow level as the workload
// demands, and optionally trades average-case for worst-case performance via
// a deadline-driven aging scheme (the balance-aware variant of Section
// III-D).
//
// One engine covers every variant in the paper:
//
//   - Transaction-level ASETS* (Section III-A): run the engine on an
//     independent workload — every transaction is its own workflow, the
//     head and representative collapse onto the transaction itself, and the
//     decision rule reduces exactly to Eq. (1).
//   - Workflow-level ASETS* (Section III-B) and the general weighted case
//     (Section III-C, Fig. 7): the default — scheduling entities are the
//     dependency closures of root transactions, classified into the
//     EDF-List and HDF-List by their representative transactions.
//   - The Ready baseline (Section III-B): singleton grouping over a
//     dependent workload, i.e. the engine sees dependent transactions only
//     once they become ready.
//   - Balance-aware ASETS* (Section III-D): time-based or count-based
//     activation of T_old, the pending ready transaction with the highest
//     weight-to-deadline ratio.
package core

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/pq"
	"repro/internal/sched"
	"repro/internal/txn"
)

// Rule selects which of the paper's two decision formulas arbitrates between
// the top of the EDF-List and the top of the HDF-List.
type Rule int

const (
	// RuleFig7 is the canonical rule from the pseudo-code in Fig. 7:
	// run the EDF winner E iff
	//   r_head(E) * w_rep(H)  <  (r_head(H) - s_rep(E)) * w_rep(E).
	// With unit weights this is exactly Eq. (1); with singleton workflows
	// head = rep = the transaction itself.
	RuleFig7 Rule = iota
	// RuleSymmetric is the variant stated in prose in Section III-B:
	// run E iff r_head(E) - s_rep(H) <= r_head(H) - s_rep(E), scaled by the
	// representative weights in the weighted case. DESIGN.md discusses the
	// discrepancy; an ablation bench compares the two.
	RuleSymmetric
)

// Activation selects the aging mode of balance-aware ASETS*.
type Activation int

const (
	// ActivationNone disables aging (plain ASETS*).
	ActivationNone Activation = iota
	// ActivationTime runs T_old every 1/rate simulated time units.
	ActivationTime
	// ActivationCount runs T_old every 1/rate scheduling points.
	ActivationCount
)

// Option customizes an ASETS* instance.
type Option func(*config)

type config struct {
	name            string
	rule            Rule
	singleton       bool
	activation      Activation
	rate            float64
	headExcludedRep bool
}

// WithRule selects the decision rule (default RuleFig7).
func WithRule(r Rule) Option { return func(c *config) { c.rule = r } }

// WithName overrides the display name used in tables.
func WithName(name string) Option { return func(c *config) { c.name = name } }

// WithHeadExcludedRep computes each workflow's representative over the
// pending members excluding the current head transaction — the alternative
// reading of the paper's Example 4, in which the head and representative of
// a two-transaction workflow are distinct transactions. The formal
// Definition 9 (over all remaining transactions) stays the default; the
// abl-rep experiment quantifies the difference.
func WithHeadExcludedRep() Option { return func(c *config) { c.headExcludedRep = true } }

// WithSingletonGrouping makes every transaction its own scheduling entity,
// hiding dependent transactions until they become ready — the paper's Ready
// baseline when the workload has precedence constraints.
func WithSingletonGrouping() Option { return func(c *config) { c.singleton = true } }

// WithTimeActivation enables balance-aware aging that runs T_old every
// 1/rate time units. The paper sweeps rate over [0.002, 0.01].
func WithTimeActivation(rate float64) Option {
	return func(c *config) { c.activation = ActivationTime; c.rate = rate }
}

// WithCountActivation enables balance-aware aging that runs T_old every
// 1/rate scheduling points. The paper sweeps rate over [0.02, 0.1].
func WithCountActivation(rate float64) Option {
	return func(c *config) { c.activation = ActivationCount; c.rate = rate }
}

// entity is one scheduling unit: a workflow together with its cached
// representative and queue handles. Entities live in exactly one of the two
// priority lists while they have at least one ready member; EDF-resident
// entities additionally sit in the expiry heap that migrates them to the
// HDF-List the moment their representative can no longer meet its deadline.
type entity struct {
	wf    *txn.Workflow
	rep   txn.Representative
	item  *pq.Item[*entity]
	exp   *pq.Item[*entity]
	inEDF bool
	ready int // number of ready members
}

// expiryTime is the instant the entity stops qualifying for the EDF-List:
// it belongs there iff now + r_rep <= d_rep, i.e. iff now <= d_rep - r_rep.
func (e *entity) expiryTime() float64 { return e.rep.Deadline - e.rep.Remaining }

// enqueued reports whether the entity currently sits in either list.
func (e *entity) enqueued() bool { return e.item.InHeap() }

// ASETSStar is the scheduler. Construct with New; the zero value is unusable.
type ASETSStar struct {
	cfg config

	set      *txn.Set
	rt       *sched.ReadyTracker
	newly    []*txn.Transaction // ReadyTracker.Complete buffer
	entities []entity           // one slab, indexed by workflow ID
	// memberOf maps a transaction to the entities whose workflow contains
	// it, in CSR form: transaction id's entities are
	// memberOf[memberStart[id]:memberStart[id+1]], in workflow order.
	memberStart []int32
	memberOf    []*entity

	edf    *pq.Heap[*entity] // ordered by representative deadline
	hdf    *pq.Heap[*entity] // ordered by representative density (weight/remaining)
	expiry *pq.Heap[*entity] // EDF residents ordered by expiry time

	// ready is the T_old candidate set: the available transactions (ready
	// and not checked out), as a dense list plus each ID's position in it
	// (-1 when absent), so insertion and removal are O(1).
	ready      []*txn.Transaction
	readyPos   []int32
	checkedOut []bool // transactions handed out via Next and not yet returned

	schedPoints    int
	nextActivation float64

	// sink, when non-nil, receives the policy-internal decision events the
	// event loops' recording around each Scheduler call cannot see: balance-aware
	// aging activations and EDF→HDF entity migrations. Installed through
	// SetSink (the sched.SinkSetter seam the event loops hand their
	// obs.Recorder to).
	sink obs.Sink
}

// SetSink installs the observation sink for policy-internal events. A nil
// sink (the default) disables emission entirely.
func (a *ASETSStar) SetSink(sink obs.Sink) { a.sink = sink }

// Compile-time check that ASETSStar satisfies the scheduler contract.
var _ sched.Scheduler = (*ASETSStar)(nil)

// New constructs an ASETS* scheduler. With no options it is the general
// workflow-level weighted policy of Fig. 7, which self-reduces to every
// special case the paper describes.
func New(opts ...Option) *ASETSStar {
	cfg := config{rule: RuleFig7}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.activation != ActivationNone && cfg.rate <= 0 {
		panic(fmt.Sprintf("core: balance-aware activation rate %v must be positive", cfg.rate))
	}
	if cfg.name == "" {
		switch {
		case cfg.singleton:
			cfg.name = "Ready"
		case cfg.activation == ActivationTime:
			cfg.name = fmt.Sprintf("ASETS*-BAL(t=%g)", cfg.rate)
		case cfg.activation == ActivationCount:
			cfg.name = fmt.Sprintf("ASETS*-BAL(c=%g)", cfg.rate)
		default:
			cfg.name = "ASETS*"
		}
	}
	return &ASETSStar{cfg: cfg}
}

// NewReady constructs the Ready baseline of Section III-B: transaction-level
// ASETS* preceded by a Wait queue, realized as singleton grouping.
func NewReady() *ASETSStar { return New(WithSingletonGrouping()) }

// Name implements sched.Scheduler.
func (a *ASETSStar) Name() string { return a.cfg.name }

// Init implements sched.Scheduler.
//
//lint:coldpath per-run setup: entities, heaps and indexes are built before the event loop
func (a *ASETSStar) Init(set *txn.Set) {
	a.set = set
	a.rt = sched.NewReadyTracker(set)

	var wfs []*txn.Workflow
	if a.cfg.singleton {
		wfs = txn.SingletonWorkflows(set)
	} else {
		wfs = txn.BuildWorkflows(set)
	}
	a.entities = make([]entity, len(wfs))
	items := pq.NewItems[*entity](2 * len(wfs))
	a.memberStart = make([]int32, set.Len()+1)
	for i, wf := range wfs {
		e := &a.entities[i]
		e.wf = wf
		e.item, e.exp = &items[2*i], &items[2*i+1]
		e.item.Value, e.exp.Value = e, e
		for _, id := range wf.Members {
			a.memberStart[id+1]++
		}
	}
	for id := 1; id < len(a.memberStart); id++ {
		a.memberStart[id] += a.memberStart[id-1]
	}
	a.memberOf = make([]*entity, a.memberStart[set.Len()])
	fill := make([]int32, set.Len())
	copy(fill, a.memberStart)
	for i, wf := range wfs {
		for _, id := range wf.Members {
			a.memberOf[fill[id]] = &a.entities[i]
			fill[id]++
		}
	}

	a.edf = pq.NewHeap[*entity](func(x, y *entity) bool {
		if x.rep.Deadline != y.rep.Deadline {
			return x.rep.Deadline < y.rep.Deadline
		}
		return x.wf.ID < y.wf.ID
	})
	// Density comparison via cross-multiplication: w_x/r_x > w_y/r_y iff
	// w_x*r_y > w_y*r_x (remaining times are strictly positive).
	a.hdf = pq.NewHeap[*entity](func(x, y *entity) bool {
		dx := x.rep.Weight * y.rep.Remaining
		dy := y.rep.Weight * x.rep.Remaining
		if dx != dy {
			return dx > dy
		}
		return x.wf.ID < y.wf.ID
	})
	a.expiry = pq.NewHeap[*entity](func(x, y *entity) bool {
		ex, ey := x.expiryTime(), y.expiryTime()
		if ex != ey {
			return ex < ey
		}
		return x.wf.ID < y.wf.ID
	})

	a.ready = a.ready[:0]
	a.readyPos = make([]int32, set.Len())
	for i := range a.readyPos {
		a.readyPos[i] = -1
	}
	a.checkedOut = make([]bool, set.Len())
	a.schedPoints = 0
	if a.cfg.activation == ActivationTime {
		a.nextActivation = 1 / a.cfg.rate
	}
}

// OnArrival implements sched.Scheduler.
func (a *ASETSStar) OnArrival(now float64, t *txn.Transaction) {
	if a.rt.Arrive(t) {
		a.markReady(now, t)
	}
}

// entitiesOf returns the entities whose workflow contains transaction id.
func (a *ASETSStar) entitiesOf(id txn.ID) []*entity {
	return a.memberOf[a.memberStart[id]:a.memberStart[id+1]]
}

// addReady inserts t into the T_old candidate set (a no-op if present).
func (a *ASETSStar) addReady(t *txn.Transaction) {
	if a.readyPos[t.ID] >= 0 {
		return
	}
	a.readyPos[t.ID] = int32(len(a.ready))
	//lint:ignore hotpath-alloc the candidate list grows to the peak ready population during warm-up, then reuses capacity
	a.ready = append(a.ready, t)
}

// removeReady deletes t from the T_old candidate set (a no-op if absent) by
// moving the last candidate into its slot.
func (a *ASETSStar) removeReady(t *txn.Transaction) {
	i := a.readyPos[t.ID]
	if i < 0 {
		return
	}
	last := a.ready[len(a.ready)-1]
	a.ready[i] = last
	a.readyPos[last.ID] = i
	a.ready[len(a.ready)-1] = nil
	a.ready = a.ready[:len(a.ready)-1]
	a.readyPos[t.ID] = -1
}

// available reports whether t can be handed to a server right now: ready
// per the dependency tracker and not already checked out to another server.
// With a single server the checked-out transaction is never queried, so
// this coincides with plain readiness; with multiple servers it prevents
// two servers from receiving the same head transaction.
func (a *ASETSStar) available(t *txn.Transaction) bool {
	return a.rt.Ready(t) && !a.checkedOut[t.ID]
}

// markReady records that t became executable and surfaces its entities into
// the priority lists.
func (a *ASETSStar) markReady(now float64, t *txn.Transaction) {
	a.addReady(t)
	for _, e := range a.entitiesOf(t.ID) {
		e.ready++
		if !e.enqueued() && !e.wf.Done() {
			a.enqueue(now, e)
			continue
		}
		// A newly ready member can change the head (DAG workflows), which
		// shifts the head-excluded representative; refresh in place.
		a.reposition(now, e)
	}
}

// repOf computes the entity's representative under the configured scope:
// Definition 9 over all pending members by default, or excluding the
// current head under WithHeadExcludedRep.
func (a *ASETSStar) repOf(e *entity) txn.Representative {
	if a.cfg.headExcludedRep {
		if h := e.wf.Head(a.available); h != nil {
			return e.wf.RepresentativeExcluding(h.ID)
		}
	}
	return e.wf.Representative()
}

// enqueue computes the entity's representative and inserts it into the list
// Definition 6/7 membership dictates.
func (a *ASETSStar) enqueue(now float64, e *entity) {
	e.rep = a.repOf(e)
	e.inEDF = e.rep.CanMeetDeadline(now)
	if e.inEDF {
		a.edf.Push(e.item)
		a.expiry.Push(e.exp)
	} else {
		a.hdf.Push(e.item)
	}
}

// dequeue removes the entity from whichever structures hold it.
func (a *ASETSStar) dequeue(e *entity) {
	if e.item.InHeap() {
		e.item.Owner().Remove(e.item)
	}
	if e.exp.InHeap() {
		a.expiry.Remove(e.exp)
	}
}

// reposition refreshes the entity's representative and restores queue order
// after a member's remaining time or the pending set changed.
func (a *ASETSStar) reposition(now float64, e *entity) {
	if !e.enqueued() {
		return
	}
	e.rep = a.repOf(e)
	inEDF := e.rep.CanMeetDeadline(now)
	if inEDF != e.inEDF {
		a.dequeue(e)
		e.inEDF = inEDF
		if inEDF {
			a.edf.Push(e.item)
			a.expiry.Push(e.exp)
		} else {
			a.hdf.Push(e.item)
		}
		return
	}
	e.item.Owner().Fix(e.item)
	if e.exp.InHeap() {
		a.expiry.Fix(e.exp)
	}
}

// migrate moves entities whose representatives can no longer meet their
// deadlines from the EDF-List to the HDF-List. A waiting entity's remaining
// time is constant, so it expires at the fixed instant d_rep - r_rep tracked
// by the expiry heap; migration is therefore O(log N) per moved entity.
func (a *ASETSStar) migrate(now float64) {
	for {
		top := a.expiry.Peek()
		if top == nil || top.Value.expiryTime() >= now {
			break
		}
		e := top.Value
		a.dequeue(e)
		e.inEDF = false
		a.hdf.Push(e.item)
		if a.sink != nil {
			a.sink.Emit(obs.Event{
				Time: now, Kind: obs.KindModeSwitch, Txn: -1, Workflow: e.wf.ID,
				Deadline: e.rep.Deadline, Remaining: e.rep.Remaining,
				Detail: "edf->hdf",
			})
		}
	}
}

// OnPreempt implements sched.Scheduler: the checked-out transaction comes
// back unfinished with less remaining work; it re-enters the schedulable
// population and its entities refresh their representatives (less remaining
// work can only improve the density and remaining-time keys).
func (a *ASETSStar) OnPreempt(now float64, t *txn.Transaction) {
	a.checkedOut[t.ID] = false
	a.markReady(now, t)
}

// OnCompletion implements sched.Scheduler.
func (a *ASETSStar) OnCompletion(now float64, t *txn.Transaction) {
	// t was checked out by Next, so its entities' ready counts already
	// exclude it; only the pending sets and the dependency tracker change.
	a.removeReady(t)
	a.newly = a.rt.Complete(t, a.newly[:0])
	for _, e := range a.entitiesOf(t.ID) {
		e.wf.Complete(t.ID)
		switch {
		case e.wf.Done() || e.ready == 0:
			a.dequeue(e)
		default:
			a.reposition(now, e)
		}
	}
	for _, r := range a.newly {
		a.markReady(now, r)
	}
}

// Next implements sched.Scheduler: Fig. 7's decision procedure, preceded by
// lazy EDF-to-HDF migration and, in balance-aware mode, the T_old activation
// check.
func (a *ASETSStar) Next(now float64) *txn.Transaction {
	a.migrate(now)
	a.schedPoints++

	if t := a.activate(now); t != nil {
		if a.sink != nil {
			a.sink.Emit(obs.Event{
				Time: now, Kind: obs.KindAging, Txn: t.ID, Workflow: -1,
				Deadline: t.Deadline, Remaining: t.Remaining,
				Detail: "t_old",
			})
		}
		a.checkOut(now, t)
		return t
	}

	head := a.pickHead(now)
	if head == nil {
		return nil
	}
	a.checkOut(now, head)
	return head
}

// checkOut removes t from the schedulable population while a server runs
// it: it leaves the T_old candidate set and stops counting toward its
// entities' ready members (an entity whose only available member is running
// must not be offered to another server).
func (a *ASETSStar) checkOut(now float64, t *txn.Transaction) {
	a.checkedOut[t.ID] = true
	a.removeReady(t)
	for _, e := range a.entitiesOf(t.ID) {
		e.ready--
		if e.ready == 0 {
			a.dequeue(e)
		} else {
			a.reposition(now, e)
		}
	}
}

// pickHead arbitrates between the tops of the two lists and returns the
// winning workflow's head transaction, or nil when both lists are empty.
func (a *ASETSStar) pickHead(now float64) *txn.Transaction {
	eTop := a.edf.Peek()
	hTop := a.hdf.Peek()
	switch {
	case eTop == nil && hTop == nil:
		return nil
	case hTop == nil:
		return a.headOf(eTop.Value)
	case eTop == nil:
		return a.headOf(hTop.Value)
	}
	e, h := eTop.Value, hTop.Value
	headE, headH := a.headOf(e), a.headOf(h)
	if a.runEDFFirst(now, e, h, headE, headH) {
		return headE
	}
	return headH
}

// headOf returns an enqueued entity's head transaction. Enqueued entities
// have at least one available member, so a missing head is a bookkeeping bug.
func (a *ASETSStar) headOf(e *entity) *txn.Transaction {
	head := e.wf.Head(a.available)
	if head == nil {
		panic(fmt.Sprintf("core: enqueued workflow %d has no ready head (ready=%d)", e.wf.ID, e.ready))
	}
	return head
}

// runEDFFirst evaluates the configured decision rule: true means the head of
// the EDF-List's top workflow executes next.
func (a *ASETSStar) runEDFFirst(now float64, e, h *entity, headE, headH *txn.Transaction) bool {
	switch a.cfg.rule {
	case RuleSymmetric:
		// Section III-B prose, weight-scaled for the general case: compare
		// the negative impact each side inflicts on the other's
		// representative.
		niE := (headE.Remaining - h.rep.Slack(now)) * h.rep.Weight
		niH := (headH.Remaining - e.rep.Slack(now)) * e.rep.Weight
		return niE <= niH
	case RuleFig7:
		// Fig. 7, lines 15-17: running E delays H's representative by the
		// full head length; running H delays E's representative only by
		// what E's slack cannot absorb.
		niE := headE.Remaining * h.rep.Weight
		niH := (headH.Remaining - e.rep.Slack(now)) * e.rep.Weight
		return niE < niH
	default:
		panic(fmt.Sprintf("core: unknown decision rule %d", a.cfg.rule))
	}
}

// activate implements the balance-aware T_old selection (Section III-D):
// when the activation period elapses, the ready transaction with the highest
// weight-to-deadline ratio runs regardless of the ASETS* order.
func (a *ASETSStar) activate(now float64) *txn.Transaction {
	switch a.cfg.activation {
	case ActivationNone:
		return nil
	case ActivationTime:
		if now < a.nextActivation {
			return nil
		}
		for a.nextActivation <= now {
			a.nextActivation += 1 / a.cfg.rate
		}
	case ActivationCount:
		period := int(1/a.cfg.rate + 0.5)
		if period < 1 {
			period = 1
		}
		if a.schedPoints%period != 0 {
			return nil
		}
	default:
		panic(fmt.Sprintf("core: unknown activation mode %d", a.cfg.activation))
	}
	return a.oldest()
}

// oldest returns T_old: the ready transaction maximizing w_i/d_i, with ties
// broken by lower ID for determinism. Returns nil when nothing is ready.
func (a *ASETSStar) oldest() *txn.Transaction {
	var best *txn.Transaction
	var bestRatio float64
	for _, t := range a.ready {
		ratio := t.Weight / t.Deadline
		if best == nil || ratio > bestRatio || (ratio == bestRatio && t.ID < best.ID) {
			best = t
			bestRatio = ratio
		}
	}
	return best
}

// QueueLengths reports the current sizes of the EDF and HDF lists, exposed
// for tests and instrumentation.
func (a *ASETSStar) QueueLengths() (edf, hdf int) {
	return a.edf.Len(), a.hdf.Len()
}
