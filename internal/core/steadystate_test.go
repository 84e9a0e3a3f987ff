//go:build !race

// The race detector instruments memory accesses with allocations of its
// own, so allocation counts are only meaningful in a plain build.

package core

import (
	"cmp"
	"slices"
	"testing"

	"repro/internal/sched"
	"repro/internal/txn"
	"repro/internal/workload"
)

// cycleHarness feeds a scheduler the transactions of a set in arrival order
// under the check-out protocol. After a prefill of backlog arrivals, every
// cycle delivers one arrival, preempts the chosen transaction halfway and
// runs the next choice to completion, so the number of arrived, unfinished
// transactions stays fixed and every buffer a policy grows reaches its
// steady size during warm-up.
type cycleHarness struct {
	t     *testing.T
	s     sched.Scheduler
	order []*txn.Transaction
	next  int
	now   float64
}

func newCycleHarness(t *testing.T, set *txn.Set, s sched.Scheduler) *cycleHarness {
	set.ResetAll()
	s.Init(set)
	order := slices.Clone(set.Txns)
	slices.SortFunc(order, func(a, b *txn.Transaction) int {
		if c := cmp.Compare(a.Arrival, b.Arrival); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	return &cycleHarness{t: t, s: s, order: order}
}

func (d *cycleHarness) arrive() {
	t := d.order[d.next]
	d.next++
	d.now = max(d.now, t.Arrival)
	d.s.OnArrival(d.now, t)
}

// checkOut calls Next and fails the test on an empty queue: dependencies
// arrive before their dependents, so the earliest arrived, unfinished
// transaction is always ready.
func (d *cycleHarness) checkOut() *txn.Transaction {
	t := d.s.Next(d.now)
	if t == nil {
		d.t.Fatalf("%s: Next returned nil with a nonempty backlog at t=%v", d.s.Name(), d.now)
	}
	return t
}

// cycle is one arrival → Next → OnPreempt → Next → OnCompletion round.
func (d *cycleHarness) cycle() {
	d.arrive()
	t := d.checkOut()
	half := t.Remaining / 2
	t.Remaining -= half
	d.now += half
	d.s.OnPreempt(d.now, t)
	t = d.checkOut()
	d.now += t.Remaining
	t.Remaining = 0
	t.Finished = true
	t.FinishTime = d.now
	d.s.OnCompletion(d.now, t)
}

// TestSteadyStateDecisionLoopAllocatesNothing is the dynamic counterpart of
// the hotpath-alloc analyzer: once warmed up on a workflow workload, every
// policy's arrival → Next → OnPreempt/OnCompletion cycle allocates nothing.
// The count is the total over all measured cycles, not a rounded per-cycle
// average, so one allocation anywhere fails the test.
func TestSteadyStateDecisionLoopAllocatesNothing(t *testing.T) {
	const (
		backlog  = 16
		warmup   = 1000
		measured = 1000
	)
	cfg := workload.Default(0.9, 5).WithWorkflows(4, 1).WithWeights()
	// AllocsPerRun calls its function once untimed before the measured call.
	cfg.N = backlog + warmup + 2*measured
	policies := []struct {
		name string
		mk   func() sched.Scheduler
	}{
		{"ASETS*", func() sched.Scheduler { return New() }},
		{"Ready", func() sched.Scheduler { return NewReady() }},
		{"ASETS*-BAL-time", func() sched.Scheduler { return New(WithTimeActivation(0.01)) }},
		{"ASETS*-BAL-count", func() sched.Scheduler { return New(WithCountActivation(0.05)) }},
		{"EDF", sched.NewEDF},
		{"SRPT", sched.NewSRPT},
		{"AED", func() sched.Scheduler { return sched.NewAED(5) }},
	}
	for _, p := range policies {
		t.Run(p.name, func(t *testing.T) {
			d := newCycleHarness(t, workload.MustGenerate(cfg), p.mk())
			for i := 0; i < backlog; i++ {
				d.arrive()
			}
			for i := 0; i < warmup; i++ {
				d.cycle()
			}
			allocs := testing.AllocsPerRun(1, func() {
				for i := 0; i < measured; i++ {
					d.cycle()
				}
			})
			if allocs != 0 {
				t.Fatalf("%v allocations over %d steady-state cycles, want 0", allocs, measured)
			}
		})
	}
}
