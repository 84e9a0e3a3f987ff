package sim

import (
	"math"
	"strings"
	"testing"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/slo"
	"repro/internal/trace"
	"repro/internal/txn"
	"repro/internal/workload"
)

// absoluteArrivals returns a copy of a finished closed-loop set whose
// Arrival fields hold each page's request instant — the first think time,
// then the previous page's last finish plus the think time — so the trace
// checkers can test slices against real arrivals (RunClosedLoop restores
// the relative fields when it returns).
func absoluteArrivals(set *txn.Set, sessions []txn.Session) *txn.Set {
	abs := set.Clone()
	for _, sess := range sessions {
		var lastFinish float64
		for pi, page := range sess.Pages {
			at := lastFinish + sess.ThinkTimes[pi]
			for _, id := range page {
				abs.ByID(id).Arrival = at
				lastFinish = max(lastFinish, set.ByID(id).FinishTime)
			}
		}
	}
	return abs
}

// TestClosedLoopTwoServers: the closed loop runs on the shared event loop,
// so two servers complete every transaction and the recorded trace passes
// the schedule checkers — no slice before its page's request, precedence
// and exact service — while actually overlapping service on both servers.
func TestClosedLoopTwoServers(t *testing.T) {
	for _, policy := range []func() sched.Scheduler{
		func() sched.Scheduler { return sched.NewEDF() },
		func() sched.Scheduler { return sched.NewSRPT() },
		func() sched.Scheduler { return core.New() },
	} {
		set, sessions, err := workload.GenerateSessions(workload.DefaultSessions(16, 1.8, 5))
		if err != nil {
			t.Fatal(err)
		}
		p := policy()
		rec := &trace.Recorder{}
		res, err := New(Config{Servers: 2, Recorder: rec}).RunClosedLoop(set, sessions, p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if res.Summary.N != set.Len() {
			t.Fatalf("%s: %d of %d complete", p.Name(), res.Summary.N, set.Len())
		}
		abs := absoluteArrivals(set, sessions)
		if err := rec.ValidateN(abs, 2); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if rec.ValidateN(abs, 1) == nil {
			t.Fatalf("%s: two-server run never overlapped service", p.Name())
		}
	}
}

// TestClosedLoopRecorder: a single-server closed-loop trace passes the
// single-server checker and accounts for all busy time.
func TestClosedLoopRecorder(t *testing.T) {
	set, sessions, err := workload.GenerateSessions(workload.DefaultSessions(8, 0.9, 5))
	if err != nil {
		t.Fatal(err)
	}
	rec := &trace.Recorder{}
	res, err := New(Config{Recorder: rec}).RunClosedLoop(set, sessions, core.New())
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Validate(absoluteArrivals(set, sessions)); err != nil {
		t.Fatal(err)
	}
	if math.Abs(rec.BusyTime()-res.Summary.BusyTime) > 1e-6 {
		t.Fatalf("trace busy %v != summary busy %v", rec.BusyTime(), res.Summary.BusyTime)
	}
}

// TestClosedLoopRejectsFixedArrivalLayers: fault plans and admission
// control are defined over fixed arrival times, so the closed loop rejects
// them with an error that says so.
func TestClosedLoopRejectsFixedArrivalLayers(t *testing.T) {
	set, sessions := tinySessions(t)
	for _, cfg := range []Config{
		{Faults: &fault.Plan{Stalls: []fault.Window{{Start: 1, Duration: 1}}}},
		{Admit: admit.QueueCap{Max: 4}},
	} {
		_, err := New(cfg).RunClosedLoop(set, sessions, sched.NewFCFS())
		if err == nil || !strings.Contains(err.Error(), "fixed arrival times") {
			t.Fatalf("cfg %+v: err = %v", cfg, err)
		}
	}
}

// TestClosedLoopSLO: SLO evaluation rides the shared loop's event stream,
// so an overloaded closed loop closes windows and fires burn alerts.
func TestClosedLoopSLO(t *testing.T) {
	set, sessions, err := workload.GenerateSessions(workload.DefaultSessions(16, 1.8, 5))
	if err != nil {
		t.Fatal(err)
	}
	sim := New(Config{SLO: &slo.Config{Spec: slo.DefaultSpec()}, Sink: &obs.Collector{}})
	if _, err := sim.RunClosedLoop(set, sessions, core.New()); err != nil {
		t.Fatal(err)
	}
	st := sim.SLOState()
	if st == nil || st.Windows == 0 || st.Fires == 0 {
		t.Fatalf("SLO state %+v: want closed windows and fired alerts", st)
	}
}
