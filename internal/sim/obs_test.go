package sim

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/workload"
)

// obsWorkload exercises workflows and weights so ASETS* produces the full
// event taxonomy, including EDF→HDF migrations.
func obsWorkload(t *testing.T) *workload.Config {
	t.Helper()
	cfg := workload.Default(0.95, 17).WithWorkflows(4, 1).WithWeights()
	cfg.N = 250
	return &cfg
}

// TestEventStreamDeterministic is the acceptance criterion for the JSONL
// sink: two fixed-seed runs serialize byte-identically.
func TestEventStreamDeterministic(t *testing.T) {
	cfg := obsWorkload(t)
	run := func() []byte {
		set := workload.MustGenerate(*cfg)
		var buf bytes.Buffer
		jw := obs.NewJSONLWriter(&buf)
		if _, err := New(Config{Sink: jw}).Run(set, core.New()); err != nil {
			t.Fatal(err)
		}
		if err := jw.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no events emitted")
	}
	if !bytes.Equal(a, b) {
		t.Fatal("fixed-seed event streams are not byte-identical")
	}
}

// TestMetricsAgreeWithSummary pins the registry's end-of-run totals against
// the independent metrics.Summary computation for the same run.
func TestMetricsAgreeWithSummary(t *testing.T) {
	cfg := obsWorkload(t)
	set := workload.MustGenerate(*cfg)
	reg := obs.NewRegistry()
	col := &obs.Collector{}
	summary, err := New(Config{Sink: col, Metrics: reg}).Run(set, core.New())
	if err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	counters := map[string]uint64{}
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	n := uint64(summary.N)
	if counters[obs.MetricArrivals] != n || counters[obs.MetricCompletions] != n {
		t.Fatalf("arrivals/completions = %d/%d, want %d", counters[obs.MetricArrivals], counters[obs.MetricCompletions], n)
	}
	wantMisses := uint64(math.Round(summary.MissRatio * float64(summary.N)))
	if counters[obs.MetricMisses] != wantMisses {
		t.Fatalf("misses = %d, want %d", counters[obs.MetricMisses], wantMisses)
	}

	var tard obs.HistogramValue
	for _, h := range snap.Histograms {
		if h.Name == obs.MetricTardiness {
			tard = h
		}
	}
	if tard.Count != summary.N {
		t.Fatalf("tardiness count = %d, want %d", tard.Count, summary.N)
	}
	// Summary averages over ID order, the histogram accumulates in
	// completion order: identical values, possibly different rounding in
	// the last bits.
	if avg := tard.Sum / float64(tard.Count); math.Abs(avg-summary.AvgTardiness) > 1e-9 {
		t.Fatalf("avg tardiness %v vs summary %v", avg, summary.AvgTardiness)
	}
	if tard.Max != summary.MaxTardiness {
		t.Fatalf("max tardiness %v vs summary %v", tard.Max, summary.MaxTardiness)
	}

	// Event-stream consistency: dispatches = completions + preemptions
	// (every check-out ends in exactly one of the two), and the event
	// counts match the counters.
	if counters[obs.MetricDispatches] != counters[obs.MetricCompletions]+counters[obs.MetricPreemptions] {
		t.Fatalf("dispatches %d != completions %d + preemptions %d",
			counters[obs.MetricDispatches], counters[obs.MetricCompletions], counters[obs.MetricPreemptions])
	}
	kinds := map[obs.Kind]uint64{}
	for _, ev := range col.Events() {
		kinds[ev.Kind]++
	}
	if kinds[obs.KindDispatch] != counters[obs.MetricDispatches] ||
		kinds[obs.KindDeadlineMiss] != counters[obs.MetricMisses] {
		t.Fatalf("event counts %v disagree with counters %v", kinds, counters)
	}
}

// TestModeSwitchEventsReachSink: a saturated ASETS* run must migrate some
// entities from EDF to HDF, and those policy-internal events must surface
// in the unified stream.
func TestModeSwitchEventsReachSink(t *testing.T) {
	cfg := workload.Default(1.3, 23).WithWorkflows(4, 1).WithWeights()
	cfg.N = 300
	set := workload.MustGenerate(cfg)
	col := &obs.Collector{}
	reg := obs.NewRegistry()
	if _, err := New(Config{Sink: col, Metrics: reg}).Run(set, core.New()); err != nil {
		t.Fatal(err)
	}
	var switches uint64
	for _, ev := range col.Events() {
		if ev.Kind == obs.KindModeSwitch {
			switches++
			if ev.Workflow < 0 || ev.Detail != "edf->hdf" {
				t.Fatalf("malformed mode-switch event %+v", ev)
			}
		}
	}
	if switches == 0 {
		t.Fatal("overloaded run produced no EDF→HDF migrations")
	}
	counters := map[string]uint64{}
	for _, c := range reg.Snapshot().Counters {
		counters[c.Name] = c.Value
	}
	if counters[obs.MetricModeSwitch] != switches {
		t.Fatalf("mode-switch counter %d != events %d", counters[obs.MetricModeSwitch], switches)
	}
}

// TestAgingEventsEmitted: balance-aware time activation produces aging
// events tagged with the activated transaction.
func TestAgingEventsEmitted(t *testing.T) {
	cfg := workload.Default(1.1, 5)
	cfg.N = 300
	set := workload.MustGenerate(cfg)
	col := &obs.Collector{}
	s := core.New(core.WithTimeActivation(0.05))
	if _, err := New(Config{Sink: col}).Run(set, s); err != nil {
		t.Fatal(err)
	}
	aging := 0
	for _, ev := range col.Events() {
		if ev.Kind == obs.KindAging {
			aging++
			if ev.Txn < 0 || ev.Detail != "t_old" {
				t.Fatalf("malformed aging event %+v", ev)
			}
		}
	}
	if aging == 0 {
		t.Fatal("balance-aware run produced no aging events")
	}
}

// TestInstrumentedRunMatchesBare: instrumentation must not change the
// schedule — the summary with a sink attached equals the uninstrumented one.
func TestInstrumentedRunMatchesBare(t *testing.T) {
	cfg := obsWorkload(t)
	set1 := workload.MustGenerate(*cfg)
	set2 := workload.MustGenerate(*cfg)
	bare, err := New(Config{}).Run(set1, core.New())
	if err != nil {
		t.Fatal(err)
	}
	inst, err := New(Config{Sink: &obs.Collector{}, Metrics: obs.NewRegistry()}).Run(set2, core.New())
	if err != nil {
		t.Fatal(err)
	}
	if *bare != *inst {
		t.Fatalf("instrumentation changed the schedule:\nbare %+v\ninst %+v", bare, inst)
	}
}
