package executor

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/contention"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/txn"
	"repro/internal/workload"
)

// diffCase is one cell of the differential matrix: a workload builder, the
// fault plan it runs under and the policy it runs with.
type diffCase struct {
	name   string
	build  func(t *testing.T, keyed bool) *txn.Set
	plan   func() *fault.Plan
	policy func() sched.Scheduler
}

// diffKeyspace is small enough that commit-time validation fails often.
var diffKeyspace = contention.Keyspace{Keys: 32, Alpha: 0.9, Reads: 3, Writes: 1}

// generatedSet builds the fault tests' overloaded workflow workload, with
// read/write sets when keyed.
func generatedSet(t *testing.T, keyed bool) *txn.Set {
	t.Helper()
	spec := workload.Spec{Config: faultConfig(41)}
	if keyed {
		spec = spec.WithContention(diffKeyspace)
	}
	set, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// coincidentStallSet is two transactions where a stall window opens at the
// instant the first completes and the second arrives: the stall must be
// recorded before the arrival, as the simulator orders it.
func coincidentStallSet(t *testing.T, keyed bool) *txn.Set {
	t.Helper()
	txns := []*txn.Transaction{
		{ID: 0, Arrival: 0, Deadline: 12, Length: 10, Weight: 1},
		{ID: 1, Arrival: 10, Deadline: 15, Length: 2, Weight: 1},
	}
	if keyed {
		txns[0].Reads, txns[0].Writes = []txn.Key{0}, []txn.Key{1}
		txns[1].Reads, txns[1].Writes = []txn.Key{1}, []txn.Key{0}
	}
	set, err := txn.NewSet(txns)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func coincidentStallPlan() *fault.Plan {
	return &fault.Plan{Stalls: []fault.Window{{Start: 10, Duration: 3}}}
}

// jsonl renders a collected stream as the JSONL bytes a capture would hold.
func jsonl(t *testing.T, col *obs.Collector) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, ev := range col.Events() {
		b, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// TestReplayStreamMatchesSimulator requires a FakeClock executor replay to
// emit byte-for-byte the event stream sim.Run emits on the same workload,
// across fault plans, admission control and contended workloads.
func TestReplayStreamMatchesSimulator(t *testing.T) {
	cases := []diffCase{
		{"no-plan", generatedSet, func() *fault.Plan { return nil }, func() sched.Scheduler { return core.New() }},
		{"fault-plan", generatedSet, faultPlan, func() sched.Scheduler { return core.New() }},
		{"coincident-stall", coincidentStallSet, coincidentStallPlan, func() sched.Scheduler { return sched.NewEDF() }},
	}
	admits := []struct {
		name string
		new  func() admit.Controller
	}{
		{"no-admit", func() admit.Controller { return nil }},
		{"queuecap", func() admit.Controller { return admit.QueueCap{Max: 12} }},
	}
	for _, c := range cases {
		for _, a := range admits {
			for _, keyed := range []bool{false, true} {
				name := c.name + "/" + a.name + "/plain"
				if keyed {
					name = c.name + "/" + a.name + "/keyed"
				}
				t.Run(name, func(t *testing.T) {
					simCol := &obs.Collector{}
					if _, err := sim.New(sim.Config{
						Sink: simCol, Faults: c.plan(), Admit: a.new(),
					}).Run(c.build(t, keyed), c.policy()); err != nil {
						t.Fatal(err)
					}

					liveCol := &obs.Collector{}
					ex := New(c.policy(), c.build(t, keyed), Options{
						TimeScale: time.Millisecond,
						Clock:     NewFakeClock(time.Unix(0, 0)),
						Sink:      liveCol,
						Faults:    c.plan(),
						Admit:     a.new(),
					})
					ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
					defer cancel()
					if _, err := ex.Run(ctx); err != nil {
						t.Fatal(err)
					}

					want, got := jsonl(t, simCol), jsonl(t, liveCol)
					if len(want) == 0 {
						t.Fatal("simulator emitted no events")
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("executor stream diverges from sim.Run at byte %d:\nsim:\n%s\nexecutor:\n%s",
							firstDiff(want, got), excerpt(want, got), excerpt(got, want))
					}
				})
			}
		}
	}
}

// firstDiff returns the offset of the first byte where a and b differ.
func firstDiff(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// excerpt returns the lines of a around its first difference from b.
func excerpt(a, b []byte) string {
	i := firstDiff(a, b)
	start := bytes.LastIndexByte(a[:i], '\n') + 1
	if j := bytes.LastIndexByte(a[:max(start-1, 0)], '\n'); j >= 0 {
		start = j + 1
	}
	end := len(a)
	for k, nl := i, 0; k < len(a); k++ {
		if a[k] == '\n' {
			if nl++; nl == 3 {
				end = k
				break
			}
		}
	}
	return string(a[start:end])
}
