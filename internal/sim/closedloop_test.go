package sim

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/txn"
	"repro/internal/workload"
)

// tinySessions builds one user with two single-transaction pages.
func tinySessions(t *testing.T) (*txn.Set, []txn.Session) {
	t.Helper()
	a := &txn.Transaction{ID: 0, Arrival: 0, Deadline: 10, Length: 4, Weight: 1}
	b := &txn.Transaction{ID: 1, Arrival: 0, Deadline: 6, Length: 2, Weight: 1}
	set, err := txn.NewSet([]*txn.Transaction{a, b})
	if err != nil {
		t.Fatal(err)
	}
	sessions := []txn.Session{{
		Pages:      [][]txn.ID{{0}, {1}},
		ThinkTimes: []float64{1, 3},
	}}
	return set, sessions
}

func TestClosedLoopTiming(t *testing.T) {
	set, sessions := tinySessions(t)
	res, err := New(Config{Patience: 0}).RunClosedLoop(set, sessions, sched.NewFCFS())
	if err != nil {
		t.Fatal(err)
	}
	// Page 0 requested at t=1, runs 1-5 (latency 4); think 3 -> page 1 at
	// t=8, runs 8-10 (latency 2).
	if got := res.PageLatencies[0][0]; got != 4 {
		t.Fatalf("page 0 latency %v, want 4", got)
	}
	if got := res.PageLatencies[0][1]; got != 2 {
		t.Fatalf("page 1 latency %v, want 2", got)
	}
	if res.Summary.AvgTardiness != 0 {
		t.Fatalf("tardiness %v, want 0 (deadlines 10 and 6 relative)", res.Summary.AvgTardiness)
	}
	if res.AbandonRate != 0 {
		t.Fatalf("abandon rate %v", res.AbandonRate)
	}
}

func TestClosedLoopRelativeDeadlines(t *testing.T) {
	// Page 1's relative deadline of 1 < its length 2: always tardy by 1.
	a := &txn.Transaction{ID: 0, Arrival: 0, Deadline: 10, Length: 4, Weight: 1}
	b := &txn.Transaction{ID: 1, Arrival: 0, Deadline: 1, Length: 2, Weight: 1}
	set, err := txn.NewSet([]*txn.Transaction{a, b})
	if err != nil {
		t.Fatal(err)
	}
	sessions := []txn.Session{{Pages: [][]txn.ID{{0}, {1}}, ThinkTimes: []float64{0, 0}}}
	res, err := New(Config{Patience: 0}).RunClosedLoop(set, sessions, sched.NewFCFS())
	if err != nil {
		t.Fatal(err)
	}
	// b requested at 4 (page 0 done) + think 0, finishes at 6, absolute
	// deadline 4+1=5 => tardy 1.
	if got := res.Summary.AvgTardiness; math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("avg tardiness %v, want 0.5 (one of two tardy by 1)", got)
	}
	// The deferred restore puts the relative deadline back.
	if set.ByID(1).Deadline != 1 || set.ByID(1).Arrival != 0 {
		t.Fatalf("relative fields not restored: %+v", set.ByID(1))
	}
}

func TestClosedLoopAbandonment(t *testing.T) {
	set, sessions := tinySessions(t)
	res, err := New(Config{Patience: 3}).RunClosedLoop(set, sessions, sched.NewFCFS()) // patience 3
	if err != nil {
		t.Fatal(err)
	}
	// Latencies 4 and 2: one of two pages abandoned.
	if res.AbandonRate != 0.5 {
		t.Fatalf("abandon rate %v, want 0.5", res.AbandonRate)
	}
}

func TestClosedLoopValidation(t *testing.T) {
	set, sessions := tinySessions(t)
	bad := []txn.Session{{Pages: [][]txn.ID{{0}}, ThinkTimes: []float64{1}}} // misses txn 1
	if _, err := New(Config{Patience: 0}).RunClosedLoop(set, bad, sched.NewFCFS()); err == nil || !strings.Contains(err.Error(), "cover") {
		t.Fatalf("err = %v", err)
	}
	dup := []txn.Session{{Pages: [][]txn.ID{{0}, {0, 1}}, ThinkTimes: []float64{1, 1}}}
	if _, err := New(Config{Patience: 0}).RunClosedLoop(set, dup, sched.NewFCFS()); err == nil || !strings.Contains(err.Error(), "two pages") {
		t.Fatalf("err = %v", err)
	}
	short := []txn.Session{{Pages: [][]txn.ID{{0}, {1}}, ThinkTimes: []float64{1}}}
	if _, err := New(Config{Patience: 0}).RunClosedLoop(set, short, sched.NewFCFS()); err == nil || !strings.Contains(err.Error(), "think times") {
		t.Fatalf("err = %v", err)
	}
	_ = sessions
}

func TestClosedLoopGeneratedWorkload(t *testing.T) {
	cfg := workload.DefaultSessions(8, 0.9, 5)
	set, sessions, err := workload.GenerateSessions(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []sched.Scheduler{sched.NewEDF(), sched.NewSRPT(), core.New()} {
		res, err := New(Config{Patience: 0}).RunClosedLoop(set, sessions, policy)
		if err != nil {
			t.Fatalf("%s: %v", policy.Name(), err)
		}
		if res.Summary.N != set.Len() {
			t.Fatalf("%s: %d of %d complete", policy.Name(), res.Summary.N, set.Len())
		}
		// Every page latency is at least its total service demand.
		for si, sess := range sessions {
			for pi, page := range sess.Pages {
				var work float64
				for _, id := range page {
					work += set.ByID(id).Length
				}
				if res.PageLatencies[si][pi] < work-1e-6 {
					t.Fatalf("%s: session %d page %d latency %v below work %v",
						policy.Name(), si, pi, res.PageLatencies[si][pi], work)
				}
			}
		}
	}
}

func TestClosedLoopReplayDeterministic(t *testing.T) {
	cfg := workload.DefaultSessions(5, 0.8, 9)
	set, sessions, err := workload.GenerateSessions(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func() float64 {
		res, err := New(Config{Patience: 0}).RunClosedLoop(set, sessions, core.New())
		if err != nil {
			t.Fatal(err)
		}
		return res.Summary.AvgTardiness
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("closed-loop replay diverged: %v vs %v", a, b)
	}
}

func TestClosedLoopMoreUsersMoreLoad(t *testing.T) {
	tard := func(users int) float64 {
		cfg := workload.DefaultSessions(users, 0.9, 11)
		cfg.MeanThink = 50 // fixed think: load scales with users
		set, sessions, err := workload.GenerateSessions(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := New(Config{Patience: 0}).RunClosedLoop(set, sessions, core.New())
		if err != nil {
			t.Fatal(err)
		}
		return res.Summary.AvgTardiness
	}
	if few, many := tard(3), tard(30); many <= few {
		t.Fatalf("30 users (%v) should be tardier than 3 (%v)", many, few)
	}
}

// pageSpy wraps a scheduler and checks, at every arrival, that each fragment
// of the arriving transaction's page already carries its absolute deadline.
type pageSpy struct {
	sched.Scheduler
	t        *testing.T
	set      *txn.Set
	pageOf   [][]txn.ID // transaction -> the fragments of its page
	relative []float64  // transaction -> its deadline relative to the request
	checked  int
}

func (s *pageSpy) OnArrival(now float64, tx *txn.Transaction) {
	for _, id := range s.pageOf[tx.ID] {
		f := s.set.ByID(id)
		if f.Deadline != tx.Arrival+s.relative[id] {
			s.t.Errorf("T%d arrives at %v: page fragment T%d has deadline %v, want absolute %v",
				tx.ID, now, id, f.Deadline, tx.Arrival+s.relative[id])
		}
	}
	s.checked++
	s.Scheduler.OnArrival(now, tx)
}

// TestClosedLoopPageDeadlinesAbsoluteAtArrival: a page's relative deadlines
// become absolute when the whole page is requested, before its first
// fragment is delivered, so a policy that looks ahead at the page's workflow
// never sees a later fragment's relative deadline.
func TestClosedLoopPageDeadlinesAbsoluteAtArrival(t *testing.T) {
	set, sessions, err := workload.GenerateSessions(workload.DefaultSessions(8, 0.9, 5))
	if err != nil {
		t.Fatal(err)
	}
	spy := &pageSpy{
		Scheduler: core.New(), t: t, set: set,
		pageOf: make([][]txn.ID, set.Len()), relative: make([]float64, set.Len()),
	}
	for _, sess := range sessions {
		for _, page := range sess.Pages {
			for _, id := range page {
				spy.pageOf[id] = page
			}
		}
	}
	for _, tx := range set.Txns {
		spy.relative[tx.ID] = tx.Deadline
	}
	if _, err := New(Config{}).RunClosedLoop(set, sessions, spy); err != nil {
		t.Fatal(err)
	}
	if spy.checked != set.Len() {
		t.Fatalf("spy saw %d arrivals, want %d", spy.checked, set.Len())
	}
}
