//go:build !race

package obs

import (
	"testing"

	"repro/internal/txn"
)

// TestRecorderAllocatesNothing is the dynamic counterpart of the
// hotpath-alloc analyzer for the recorder: once warm, recording every event
// kind into a Ring and a registry — staging, batch delivery, counter,
// gauge and histogram flushes included — allocates nothing. The count is
// the total over all measured rounds, so one allocation anywhere fails.
func TestRecorderAllocatesNothing(t *testing.T) {
	r := NewRecorder(NewRing(1024), NewRegistry(), LayerFault|LayerContention|LayerCluster)
	tx := &txn.Transaction{ID: 3, Arrival: 0, Deadline: 1, Length: 2, Remaining: 2}
	now := 0.0
	round := func() {
		now++
		tx.FinishTime = now
		r.Arrival(now, tx)
		r.Dispatch(now, tx, "0")
		r.Preempt(now, tx)
		r.Completion(now, tx) // late: a deadline miss too
		r.Abort(now, tx, "abort", now+1)
		r.Restart(now, tx)
		r.Stall(now, 2, "stall")
		r.Shed(now, tx, "queue:4")
		r.Degrade(now, true)
		r.Degrade(now, false)
		r.ValidateFail(now, tx, "1")
		r.Route(now, tx, "2")
		r.Failover(now, tx, "2<-1")
		r.Lost(now, tx)
		r.Eject(now, "1", 2)
		r.Recover(now, "1", 3)
		for _, k := range []Kind{KindAging, KindModeSwitch, KindConflictDefer, KindAlertFire, KindAlertResolve} {
			r.Emit(Event{Time: now, Kind: k, Txn: -1, Workflow: 0, Detail: "edf->hdf"})
		}
		if int(now)%50 == 0 {
			r.Flush()
		}
	}
	for i := 0; i < 300; i++ { // warm: fill and wrap the Ring, flush every batch size
		round()
	}
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 1000; i++ {
			round()
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations over 1000 rounds of every event kind, want 0", allocs)
	}
}
