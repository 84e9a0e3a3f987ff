package txn

import (
	"slices"
	"testing"
)

// chainSet builds T0 -> T1 -> T2 (T2 depends on T1 depends on T0) plus an
// independent T3, mirroring a small page workload.
func chainSet(t *testing.T) *Set {
	t.Helper()
	t0 := mk(0, 0, 30, 10)
	t1 := mk(1, 0, 12, 2, 0)
	t2 := mk(2, 0, 50, 5, 1)
	t3 := mk(3, 0, 40, 8)
	t0.Weight, t1.Weight, t2.Weight, t3.Weight = 1, 9, 2, 4
	return mustSet(t, t0, t1, t2, t3)
}

func TestBuildWorkflows(t *testing.T) {
	s := chainSet(t)
	wfs := BuildWorkflows(s)
	if len(wfs) != 2 {
		t.Fatalf("built %d workflows, want 2 (roots T2 and T3)", len(wfs))
	}
	// Workflow of root T2 contains the whole chain.
	wf := wfs[0]
	if wf.Root != 2 || len(wf.Members) != 3 {
		t.Fatalf("workflow 0 = %v", wf)
	}
	// Workflow of root T3 is a singleton.
	if wfs[1].Root != 3 || len(wfs[1].Members) != 1 {
		t.Fatalf("workflow 1 = %v", wfs[1])
	}
}

func TestSharedMembership(t *testing.T) {
	// Diamond: two roots (2 and 3) sharing the leaf 0.
	s := mustSet(t,
		mk(0, 0, 10, 1),
		mk(1, 0, 10, 1, 0),
		mk(2, 0, 10, 1, 1),
		mk(3, 0, 10, 1, 0),
	)
	wfs := BuildWorkflows(s)
	if len(wfs) != 2 {
		t.Fatalf("want 2 workflows, got %d", len(wfs))
	}
	inBoth := 0
	for _, wf := range wfs {
		if wf.Contains(0) {
			inBoth++
		}
	}
	if inBoth != 2 {
		t.Fatal("transaction 0 must belong to both workflows (Section II-A)")
	}
}

func TestRepresentativeDefinition9(t *testing.T) {
	s := chainSet(t)
	wf := BuildWorkflows(s)[0] // chain 0 -> 1 -> 2
	rep := wf.Representative()
	if rep.Deadline != 12 {
		t.Fatalf("rep deadline = %v, want min(30, 12, 50) = 12", rep.Deadline)
	}
	if rep.Remaining != 2 {
		t.Fatalf("rep remaining = %v, want min(10, 2, 5) = 2", rep.Remaining)
	}
	if rep.Weight != 9 {
		t.Fatalf("rep weight = %v, want max(1, 9, 2) = 9", rep.Weight)
	}
}

func TestRepresentativeTracksCompletion(t *testing.T) {
	s := chainSet(t)
	wf := BuildWorkflows(s)[0]
	s.ByID(1).Finished = true
	if !wf.Complete(1) {
		t.Fatal("Complete(1) returned false for pending member")
	}
	rep := wf.Representative()
	if rep.Deadline != 30 || rep.Remaining != 5 || rep.Weight != 2 {
		t.Fatalf("rep after completing T1 = %+v", rep)
	}
	if wf.Complete(1) {
		t.Fatal("Complete of already-removed member returned true")
	}
}

func TestRepresentativePanicsWhenDone(t *testing.T) {
	s := mustSet(t, mk(0, 0, 10, 1))
	wf := BuildWorkflows(s)[0]
	wf.Complete(0)
	if !wf.Done() {
		t.Fatal("workflow not done after completing its only member")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Representative of done workflow did not panic")
		}
	}()
	wf.Representative()
}

func TestRepresentativeSlackAndMembership(t *testing.T) {
	rep := Representative{Deadline: 20, Remaining: 6, Weight: 2}
	if rep.Slack(10) != 4 {
		t.Fatalf("slack = %v", rep.Slack(10))
	}
	if !rep.CanMeetDeadline(14) {
		t.Fatal("boundary case t + r == d must qualify for the EDF list")
	}
	if rep.CanMeetDeadline(15) {
		t.Fatal("t + r > d must not qualify")
	}
	if rep.Density() != 2.0/6.0 {
		t.Fatalf("density = %v", rep.Density())
	}
}

func TestHeadChain(t *testing.T) {
	s := chainSet(t)
	wf := BuildWorkflows(s)[0]
	ready := func(tx *Transaction) bool { return tx.Independent() && !tx.Finished }
	head := wf.Head(ready)
	if head == nil || head.ID != 0 {
		t.Fatalf("head = %v, want T0", head)
	}
}

func TestHeadNoneReady(t *testing.T) {
	s := chainSet(t)
	wf := BuildWorkflows(s)[0]
	if head := wf.Head(func(*Transaction) bool { return false }); head != nil {
		t.Fatalf("head = %v, want nil when nothing ready", head)
	}
}

func TestHeadPrefersEarliestDeadline(t *testing.T) {
	// DAG: root 2 depends on 0 and 1; both leaves ready.
	l0 := mk(0, 0, 40, 5)
	l1 := mk(1, 0, 10, 5)
	r := mk(2, 0, 50, 5, 0, 1)
	s := mustSet(t, l0, l1, r)
	wf := BuildWorkflows(s)[0]
	head := wf.Head(func(tx *Transaction) bool { return tx.Independent() })
	if head.ID != 1 {
		t.Fatalf("head = T%d, want T1 (earliest deadline among ready members)", head.ID)
	}
}

func TestHeadTieBreaks(t *testing.T) {
	// Equal deadlines: higher density wins; equal density: lower ID.
	a := mk(0, 0, 10, 5)
	b := mk(1, 0, 10, 5)
	b.Weight = 3 // higher density
	r := mk(2, 0, 99, 1, 0, 1)
	s := mustSet(t, a, b, r)
	wf := BuildWorkflows(s)[0]
	head := wf.Head(func(tx *Transaction) bool { return tx.Independent() })
	if head.ID != 1 {
		t.Fatalf("head = T%d, want T1 (higher density)", head.ID)
	}

	b.Weight = 1
	head = wf.Head(func(tx *Transaction) bool { return tx.Independent() })
	if head.ID != 0 {
		t.Fatalf("head = T%d, want T0 (lowest ID tie-break)", head.ID)
	}
}

func TestSingletonWorkflows(t *testing.T) {
	s := chainSet(t)
	wfs := SingletonWorkflows(s)
	if len(wfs) != s.Len() {
		t.Fatalf("%d singleton workflows for %d transactions", len(wfs), s.Len())
	}
	for i, wf := range wfs {
		if wf.Root != ID(i) || len(wf.Members) != 1 || wf.Pending() != 1 {
			t.Fatalf("singleton %d = %v", i, wf)
		}
		rep := wf.Representative()
		tx := s.ByID(ID(i))
		if rep.Deadline != tx.Deadline || rep.Remaining != tx.Remaining || rep.Weight != tx.Weight {
			t.Fatalf("singleton rep %d does not equal its transaction", i)
		}
	}
}

func TestWorkflowReset(t *testing.T) {
	s := chainSet(t)
	wf := BuildWorkflows(s)[0]
	wf.Complete(0)
	wf.Complete(1)
	wf.Reset(s)
	if wf.Pending() != 3 {
		t.Fatalf("pending after reset = %d", wf.Pending())
	}
	if got := wf.PendingIDs(); !slices.Equal(got, wf.Members) {
		t.Fatalf("PendingIDs after reset = %v, want every member %v", got, wf.Members)
	}
	for _, id := range wf.Members {
		if !wf.Contains(id) {
			t.Fatalf("member T%d not pending after reset", id)
		}
	}
}

func TestPendingIDsSorted(t *testing.T) {
	s := chainSet(t)
	wf := BuildWorkflows(s)[0]
	ids := wf.PendingIDs()
	want := []ID{0, 1, 2}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("PendingIDs = %v", ids)
		}
	}
}

// fanInSet builds one workflow: root T5 depends directly on T0..T4.
func fanInSet(t *testing.T) *Set {
	t.Helper()
	txns := make([]*Transaction, 0, 6)
	for i := 0; i < 5; i++ {
		txns = append(txns, mk(i, 0, 10, 1))
	}
	return mustSet(t, append(txns, mk(5, 0, 10, 1, 0, 1, 2, 3, 4))...)
}

func TestPendingSetComplete(t *testing.T) {
	s := chainSet(t)
	wf := BuildWorkflows(s)[0] // members T0, T1, T2
	if wf.Complete(3) {
		t.Fatal("Complete of a non-member returned true")
	}
	if wf.Pending() != 3 {
		t.Fatalf("pending after non-member Complete = %d, want 3", wf.Pending())
	}
	if !wf.Complete(0) {
		t.Fatal("Complete of a pending member returned false")
	}
	if wf.Contains(0) {
		t.Fatal("Contains(0) true after Complete(0)")
	}
	if wf.Complete(0) {
		t.Fatal("second Complete of the same member returned true")
	}
	if wf.Pending() != 2 || !wf.Contains(1) || !wf.Contains(2) {
		t.Fatalf("pending after Complete(0) = %v, want [1 2]", wf.PendingIDs())
	}
}

func TestPendingIDsSortedAfterOutOfOrderCompletions(t *testing.T) {
	s := fanInSet(t)
	wf := BuildWorkflows(s)[0]
	for _, id := range []ID{3, 0, 5} {
		if !wf.Complete(id) {
			t.Fatalf("Complete(%d) returned false", id)
		}
	}
	if got, want := wf.PendingIDs(), []ID{1, 2, 4}; !slices.Equal(got, want) {
		t.Fatalf("PendingIDs = %v, want %v", got, want)
	}
	wf.Reset(s)
	if got := wf.PendingIDs(); !slices.Equal(got, wf.Members) {
		t.Fatalf("PendingIDs after reset = %v, want %v", got, wf.Members)
	}
}

func TestWorkflowString(t *testing.T) {
	s := chainSet(t)
	wf := BuildWorkflows(s)[0]
	if got := wf.String(); got == "" {
		t.Fatal("empty String()")
	}
}
