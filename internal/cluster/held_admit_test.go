package cluster

import (
	"context"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/executor"
	"repro/internal/fault"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/txn"
)

// heldPair is two transactions on one server: A (T0) runs 0-1 and aborts
// at its completion attempt, then waits out a backoff until 6; B (T1)
// arrives at 1.5, while A is held.
func heldPair(t *testing.T) *txn.Set {
	t.Helper()
	set, err := txn.NewSet([]*txn.Transaction{
		{ID: 0, Arrival: 0, Deadline: 100, Length: 1, Weight: 1},
		{ID: 1, Arrival: 1.5, Deadline: 100, Length: 1, Weight: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func heldPlan() *fault.Plan {
	return &fault.Plan{Seed: 1, AbortProb: 1, MaxRestarts: 1, BackoffBase: 5}
}

// probeClock is a FakeClock that, on every pace, asks the executor whether
// it would admit probe, remembering the answer given while a transaction
// was held. Pacing runs on the goroutine that called Run.
type probeClock struct {
	*executor.FakeClock
	ex       *executor.Executor
	probe    *txn.Transaction
	heldSeen bool
	admitted bool
}

func (c *probeClock) Sleep(ctx context.Context, d time.Duration) error {
	if ok, st := c.ex.Probe(c.probe); st.Held == 1 {
		c.heldSeen, c.admitted = true, ok
	}
	return c.FakeClock.Sleep(ctx, d)
}

// TestQueuedCountsHeldTransactions: admit.State.Queued includes aborted
// transactions waiting out a backoff, in every engine that builds it. With
// QueueCap{Max: 1}, B arriving while A is held finds the queue full and is
// shed by the simulator, by the executor's probe at that instant, and by a
// one-instance cluster alike.
func TestQueuedCountsHeldTransactions(t *testing.T) {
	t.Run("sim", func(t *testing.T) {
		set := heldPair(t)
		sum, err := sim.New(sim.Config{Faults: heldPlan(), Admit: admit.QueueCap{Max: 1}}).Run(set, sched.NewEDF())
		if err != nil {
			t.Fatal(err)
		}
		if sum.Shed != 1 || !set.ByID(1).Shed {
			t.Fatalf("sim shed %d (B shed %v), want B shed", sum.Shed, set.ByID(1).Shed)
		}
	})
	t.Run("executor", func(t *testing.T) {
		set := heldPair(t)
		clock := &probeClock{FakeClock: executor.NewFakeClock(time.Unix(0, 0)), probe: set.ByID(1)}
		ex := executor.New(sched.NewEDF(), set, executor.Options{
			TimeScale: time.Millisecond, Clock: clock,
			Faults: heldPlan(), Admit: admit.QueueCap{Max: 1},
		})
		clock.ex = ex
		if _, err := ex.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if !clock.heldSeen {
			t.Fatal("no pace happened while A was held")
		}
		if clock.admitted {
			t.Fatal("Probe admits B while A is held")
		}
		if st := ex.Stats(); st.Shed != 1 {
			t.Fatalf("executor shed %d, want 1", st.Shed)
		}
	})
	t.Run("cluster", func(t *testing.T) {
		set := heldPair(t)
		res, err := New(Config{
			Instances:    1,
			NewScheduler: sched.NewEDF,
			NewAdmit:     func() admit.Controller { return admit.QueueCap{Max: 1} },
			Faults:       []*fault.Plan{heldPlan()},
		}).Run(set)
		if err != nil {
			t.Fatal(err)
		}
		if res.Shed != 1 || !set.ByID(1).Shed {
			t.Fatalf("cluster shed %d (B shed %v), want B shed", res.Shed, set.ByID(1).Shed)
		}
	})
}
