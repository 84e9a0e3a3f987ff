package obs_test

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/txn"
	"repro/internal/workload"
)

func recorderSet(t *testing.T) *txn.Set {
	t.Helper()
	txns := []*txn.Transaction{
		{ID: 0, Arrival: 0, Deadline: 2, Length: 1, Weight: 1},
		{ID: 1, Arrival: 0.5, Deadline: 1.2, Length: 0.4, Weight: 1},
		{ID: 2, Arrival: 1, Deadline: 1.5, Length: 2, Weight: 1}, // will miss
	}
	set, err := txn.NewSet(txns)
	if err != nil {
		t.Fatal(err)
	}
	set.ResetAll()
	return set
}

func counterValues(reg *obs.Registry) map[string]uint64 {
	m := map[string]uint64{}
	for _, c := range reg.Snapshot().Counters {
		m[c.Name] = c.Value
	}
	return m
}

func TestRecorderNoopWhenUnconfigured(t *testing.T) {
	if r := obs.NewRecorder(nil, nil, obs.LayerFault|obs.LayerCluster); r != nil {
		t.Fatal("NewRecorder(nil, nil) built a recorder")
	}
	// A Discard sink with no registry observes nothing either.
	if r := obs.NewRecorder(obs.Discard, nil, 0); r != nil {
		t.Fatal("NewRecorder(Discard, nil) built a recorder")
	}
	// Every method of the nil recorder is a no-op.
	var r *obs.Recorder
	tx := &txn.Transaction{ID: 1, Deadline: 2, Length: 1, Remaining: 1}
	r.Arrival(0, tx)
	r.Dispatch(0, tx, "")
	r.Preempt(0, tx)
	r.Completion(0, tx)
	r.Abort(0, tx, "abort", 1)
	r.Restart(0, tx)
	r.Stall(0, 1, "stall")
	r.Shed(0, tx, "queue:1")
	r.Degrade(0, true)
	r.ValidateFail(0, tx, "")
	r.Route(0, tx, "0")
	r.Failover(0, tx, "1<-0")
	r.Lost(0, tx)
	r.Eject(0, "0", 1)
	r.Recover(0, "0", 2)
	r.Emit(obs.Event{Kind: obs.KindAging})
	r.Flush()
}

// TestRecorderEmitsDecisionEvents drives a scheduler through the loop's
// check-out protocol by hand, recording each decision beside the call the
// way the event loops do, and checks the stream and the registry agree with
// what happened.
func TestRecorderEmitsDecisionEvents(t *testing.T) {
	set := recorderSet(t)
	col := &obs.Collector{}
	reg := obs.NewRegistry()
	r := obs.NewRecorder(col, reg, 0)
	s := sched.NewEDF()
	s.Init(set)
	arrive := func(now float64, tx *txn.Transaction) {
		r.Arrival(now, tx)
		s.OnArrival(now, tx)
	}
	next := func(now float64) *txn.Transaction {
		tx := s.Next(now)
		if tx != nil {
			r.Dispatch(now, tx, "")
		}
		return tx
	}
	complete := func(now float64, tx *txn.Transaction) {
		tx.Remaining = 0
		tx.Finished = true
		tx.FinishTime = now
		r.Completion(now, tx)
		s.OnCompletion(now, tx)
	}

	// t0 arrives and runs until t1 arrives at 0.5 (preemption point).
	arrive(0, set.ByID(0))
	got := next(0)
	if got == nil || got.ID != 0 {
		t.Fatalf("Next = %v", got)
	}
	got.Remaining -= 0.5
	arrive(0.5, set.ByID(1))
	r.Preempt(0.5, got)
	s.OnPreempt(0.5, got)

	// t1 has the earlier deadline: runs 0.5→0.9 and completes on time.
	if got = next(0.5); got == nil || got.ID != 1 {
		t.Fatalf("Next = %v", got)
	}
	complete(0.9, got)

	// t0 resumes and completes on time; then t2 arrives late and misses.
	complete(1.4, next(0.9))
	arrive(1.4, set.ByID(2))
	if got = next(1.4); got == nil || got.ID != 2 {
		t.Fatalf("Next = %v", got)
	}
	complete(3.4, got)

	// Events, counts and histogram observations wait for a drain.
	if n := len(col.Events()); n != 0 {
		t.Fatalf("%d events delivered before Flush", n)
	}
	r.Flush()

	kinds := map[obs.Kind]int{}
	for _, ev := range col.Events() {
		kinds[ev.Kind]++
	}
	want := map[obs.Kind]int{
		obs.KindArrival:      3,
		obs.KindDispatch:     4,
		obs.KindPreempt:      1,
		obs.KindCompletion:   3,
		obs.KindDeadlineMiss: 1,
	}
	for k, n := range want {
		if kinds[k] != n {
			t.Errorf("%v events = %d, want %d", k, kinds[k], n)
		}
	}

	counters := counterValues(reg)
	if counters[obs.MetricArrivals] != 3 || counters[obs.MetricDispatches] != 4 ||
		counters[obs.MetricPreemptions] != 1 || counters[obs.MetricCompletions] != 3 ||
		counters[obs.MetricMisses] != 1 {
		t.Fatalf("counters = %v", counters)
	}
	var tard obs.HistogramValue
	for _, h := range reg.Snapshot().Histograms {
		if h.Name == obs.MetricTardiness {
			tard = h
		}
	}
	if tard.Count != 3 || tard.Sum != 1.9 { // only t2 is tardy: 3.4 - 1.5
		t.Fatalf("tardiness histogram = %+v", tard)
	}
	// Without the fault layer its series are not exported.
	if _, ok := counters[obs.MetricAborts]; ok {
		t.Fatal("fault counters registered for a run without the fault layer")
	}

	// Events are stamped with the decision's simulated time.
	for _, ev := range col.Events() {
		if ev.Kind == obs.KindDeadlineMiss && (ev.Time != 3.4 || ev.Tardiness != 1.9) {
			t.Fatalf("deadline-miss event = %+v", ev)
		}
	}
}

// sinkRecorder records SetSink installations.
type sinkRecorder struct {
	sched.Scheduler
	sink obs.Sink
}

func (s *sinkRecorder) SetSink(sink obs.Sink) { s.sink = sink }

// TestRecorderPropagatesSink: an observed run hands its recorder to a
// SinkSetter policy, and policy-internal events entering through it are
// counted and join the stream; an unobserved run hands over nothing.
func TestRecorderPropagatesSink(t *testing.T) {
	cfg := workload.Default(0.5, 3)
	cfg.N = 20
	set := workload.MustGenerate(cfg)

	bare := &sinkRecorder{Scheduler: sched.NewEDF()}
	if _, err := sim.New(sim.Config{}).Run(set, bare); err != nil {
		t.Fatal(err)
	}
	if bare.sink != nil {
		t.Fatalf("unobserved run installed sink %T", bare.sink)
	}

	pol := &sinkRecorder{Scheduler: sched.NewEDF()}
	col := &obs.Collector{}
	reg := obs.NewRegistry()
	if _, err := sim.New(sim.Config{Sink: col, Metrics: reg}).Run(set, pol); err != nil {
		t.Fatal(err)
	}
	r, ok := pol.sink.(*obs.Recorder)
	if !ok {
		t.Fatalf("policy sink is %T, want the run's *obs.Recorder", pol.sink)
	}
	before := len(col.Events())
	r.Emit(obs.Event{Time: 1, Kind: obs.KindModeSwitch, Txn: -1, Workflow: 0})
	r.Emit(obs.Event{Time: 2, Kind: obs.KindAging, Txn: 0, Workflow: -1})
	r.Emit(obs.Event{Time: 3, Kind: obs.KindConflictDefer, Txn: 1, Workflow: -1})
	r.Flush()
	if n := len(col.Events()) - before; n != 3 {
		t.Fatalf("%d policy events reached the sink, want 3", n)
	}
	counters := counterValues(reg)
	if counters[obs.MetricModeSwitch] != 1 || counters[obs.MetricAging] != 1 || counters[obs.MetricConflictDefers] != 1 {
		t.Fatalf("policy-event counters = %v", counters)
	}
}
