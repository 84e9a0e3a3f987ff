package analysis

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/txn"
	"repro/internal/workload"
)

func mk(id int, arrival, deadline, length float64, deps ...txn.ID) *txn.Transaction {
	return &txn.Transaction{
		ID:       txn.ID(id),
		Arrival:  arrival,
		Deadline: deadline,
		Length:   length,
		Weight:   1,
		Deps:     deps,
	}
}

func runTraced(t *testing.T, s sched.Scheduler, txns ...*txn.Transaction) (*txn.Set, *trace.Recorder) {
	t.Helper()
	set, err := txn.NewSet(txns)
	if err != nil {
		t.Fatal(err)
	}
	rec := &trace.Recorder{}
	if _, err := sim.New(sim.Config{Recorder: rec}).Run(set, s); err != nil {
		t.Fatal(err)
	}
	if err := rec.Validate(set); err != nil {
		t.Fatal(err)
	}
	return set, rec
}

func TestPeriodsBusyIdle(t *testing.T) {
	set, rec := runTraced(t, sched.NewFCFS(),
		mk(0, 0, 100, 2),
		mk(1, 10, 100, 3),
	)
	_ = set
	periods := Periods(rec)
	if len(periods) != 3 {
		t.Fatalf("periods = %v, want busy/idle/busy", periods)
	}
	if !periods[0].Busy || periods[1].Busy || !periods[2].Busy {
		t.Fatalf("period pattern wrong: %v", periods)
	}
	if gap := periods[1].End - periods[1].Start; gap != 8 {
		t.Fatalf("idle gap = %v, want 8", gap)
	}
}

func TestPeriodsEmpty(t *testing.T) {
	if p := Periods(&trace.Recorder{}); p != nil {
		t.Fatalf("empty trace periods = %v", p)
	}
}

func TestByDependency(t *testing.T) {
	set, _ := runTraced(t, core.New(),
		mk(0, 0, 1, 5),
		mk(1, 0, 1, 5, 0),
		mk(2, 0, 100, 5),
	)
	classes := ByDependency(set)
	if len(classes) != 2 {
		t.Fatalf("classes = %v", classes)
	}
	var dep, indep ClassStats
	for _, c := range classes {
		if c.Class == "dependent" {
			dep = c
		} else {
			indep = c
		}
	}
	if dep.N != 1 || indep.N != 2 {
		t.Fatalf("counts: dep %d indep %d", dep.N, indep.N)
	}
	if dep.AvgTardiness <= 0 {
		t.Fatal("dependent behind a tardy producer must be tardy")
	}
}

func TestWaitsDecomposition(t *testing.T) {
	// T0: runs 0-4. T1 depends on T0, arrives at 0: dep wait 4, then runs
	// 4-6 with no queueing. T2 arrives at 0 (indep, short deadline loses to
	// FCFS): queueing only.
	set, rec := runTraced(t, sched.NewFCFS(),
		mk(0, 0, 100, 4),
		mk(1, 0, 100, 2, 0),
		mk(2, 1, 100, 3),
	)
	waits := Waits(set, rec)
	w1 := waits[1]
	if math.Abs(w1.DepWait-4) > 1e-9 || math.Abs(w1.Queueing) > 1e-9 || w1.Service != 2 {
		t.Fatalf("T1 breakdown = %+v", w1)
	}
	w2 := waits[2]
	if w2.DepWait != 0 || math.Abs(w2.Queueing-5) > 1e-9 || w2.Service != 3 {
		t.Fatalf("T2 breakdown = %+v (finish %v)", w2, set.ByID(2).FinishTime)
	}
	dep, q, svc := SummarizeWaits(waits)
	if dep <= 0 || q <= 0 || svc <= 0 {
		t.Fatalf("summary = %v %v %v", dep, q, svc)
	}
}

func TestSummarizeWaitsEmpty(t *testing.T) {
	d, q, s := SummarizeWaits(nil)
	if d != 0 || q != 0 || s != 0 {
		t.Fatal("empty summarize non-zero")
	}
}

func TestGanttRenders(t *testing.T) {
	set, rec := runTraced(t, sched.NewEDF(),
		mk(0, 0, 10, 4),
		mk(1, 1, 4, 2),
	)
	out := Gantt(set, rec, 40)
	for _, want := range []string{"T0", "T1", "#", "legend"} {
		if !strings.Contains(out, want) {
			t.Fatalf("gantt missing %q:\n%s", want, out)
		}
	}
}

func TestGanttEmpty(t *testing.T) {
	set, _ := txn.NewSet(nil)
	if out := Gantt(set, &trace.Recorder{}, 40); !strings.Contains(out, "empty") {
		t.Fatalf("empty gantt = %q", out)
	}
}

// TestWaitsConservation: dep wait + queueing + service equals response time
// for every transaction on a generated workload.
func TestWaitsConservation(t *testing.T) {
	cfg := workload.Default(0.8, 3).WithWorkflows(5, 1)
	cfg.N = 300
	set := workload.MustGenerate(cfg)
	rec := &trace.Recorder{}
	if _, err := sim.New(sim.Config{Recorder: rec}).Run(set, core.New()); err != nil {
		t.Fatal(err)
	}
	for _, w := range Waits(set, rec) {
		tx := set.ByID(w.ID)
		resp := tx.FinishTime - tx.Arrival
		if math.Abs(w.DepWait+w.Queueing+w.Service-resp) > 1e-6 {
			t.Fatalf("T%d: %v + %v + %v != response %v", w.ID, w.DepWait, w.Queueing, w.Service, resp)
		}
	}
}
