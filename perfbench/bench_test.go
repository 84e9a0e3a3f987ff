package main

import (
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// tinyOptions runs a workload at smoke-test size.
func tinyOptions(trace bool) options {
	return options{seed: 7, seconds: 1, trace: trace, short: true}
}

// TestWorkloadsEmitEveryMetric runs every workload at a tiny size, untraced
// and traced, and checks that it passes its own checks and reports every
// metric with its unit.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			r, err := execute(w, tinyOptions(traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			res, err := r.result(defs)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d, failures %v",
					w.name, traced, res.Correct, res.Attempted, res.Failed, r.failures)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.name, traced, d.name, m, d.unit)
				}
			}
			if !traced {
				for _, d := range endToEnd {
					if res.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, want > 0", w.name, d.name, res.Metrics[d.name].Value)
					}
				}
			}
		}
	}
}

// TestResultNeedsEveryMetric checks that a run which forgot a metric is an
// error rather than a result.
func TestResultNeedsEveryMetric(t *testing.T) {
	r := newReport()
	r.attempted = 1
	for _, d := range endToEnd[1:] {
		r.set(d.name, 1)
	}
	if _, err := r.result(endToEnd); err == nil || !strings.Contains(err.Error(), endToEnd[0].name) {
		t.Fatalf("missing %s: got %v", endToEnd[0].name, err)
	}
}

// simOutcome runs a small Table-I set under ASETS* and returns its outcome,
// which passes check.
func simOutcome(t *testing.T) outcome {
	t.Helper()
	cfg := workload.Default(0.9, 3).WithWorkflows(4, 1).WithWeights()
	cfg.N = 500
	set, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := sim.New(sim.Config{}).Run(set, core.New())
	if err != nil {
		t.Fatal(err)
	}
	o := outcome{set: set, completions: make([]int, set.Len()), completed: sum.N, shed: sum.Shed, missRatio: sum.MissRatio}
	for _, tx := range set.Txns {
		o.completions[tx.ID] = 1
	}
	if err := o.check(); err != nil {
		t.Fatalf("clean outcome: %v", err)
	}
	return o
}

// TestChecksCatchInjectedMismatch injects one defect at a time into a clean
// outcome and checks that the outcome check rejects each.
func TestChecksCatchInjectedMismatch(t *testing.T) {
	cases := []struct {
		name   string
		inject func(o *outcome)
	}{
		{"miss ratio off", func(o *outcome) { o.missRatio += 0.01 }},
		{"completed twice", func(o *outcome) { o.completions[5] = 2 }},
		{"completion count off", func(o *outcome) { o.completed-- }},
		{"unfinished transaction", func(o *outcome) { o.set.Txns[9].Finished = false }},
		{"finished and shed", func(o *outcome) { o.set.Txns[9].Shed = true }},
		{"lost not counted", func(o *outcome) { o.set.Txns[9].Finished, o.set.Txns[9].Shed = false, true }},
	}
	for _, c := range cases {
		o := simOutcome(t)
		c.inject(&o)
		if err := o.check(); err == nil {
			t.Errorf("%s: check passed", c.name)
		}
	}
	o := simOutcome(t)
	if err := checkDigest("traced run", scheduleDigest(o.set), scheduleDigest(o.set)); err != nil {
		t.Errorf("equal digests: %v", err)
	}
	want := scheduleDigest(o.set)
	o.set.Txns[3].FinishTime += 1e-9
	if err := checkDigest("traced run", scheduleDigest(o.set), want); err == nil {
		t.Error("digest check passed on a moved finish time")
	}
}

// TestEngineFailureIsCounted checks that a run the engine fails is counted
// as failed transactions and an incorrect result, not dropped.
func TestEngineFailureIsCounted(t *testing.T) {
	o := simOutcome(t)
	o.set.Txns[4].Finished = false
	run := func(bool) (outcome, error) { return outcome{set: o.set}, errors.New("engine stuck") }
	r := newReport()
	measureSim(options{seconds: 0.01}, r, run)
	runs := r.attempted / o.set.Len()
	if runs < minRuns || r.failed != runs {
		t.Errorf("failed %d, attempted %d: want one failed transaction in each of at least %d runs", r.failed, r.attempted, minRuns)
	}
	if len(r.failures) != 1 || r.failures[0] != "engine stuck" {
		t.Errorf("failures %v", r.failures)
	}
}

// TestValidateRejectsBadAnswers checks the live answer validation.
func TestValidateRejectsBadAnswers(t *testing.T) {
	good := []struct {
		path   string
		status int
		body   string
	}{
		{pathSubmit, http.StatusAccepted, `{"admitted":true}`},
		{pathSubmit, http.StatusTooManyRequests, `{"admitted":false}`},
		{pathStats, http.StatusOK, `{"completed":3}`},
		{pathMetrics, http.StatusOK, "# TYPE asets_x counter\nasets_x 1\n"},
	}
	for _, g := range good {
		if err := validate(g.path, g.status, []byte(g.body)); err != nil {
			t.Errorf("%s %d %q: %v", g.path, g.status, g.body, err)
		}
	}
	bad := []struct {
		path   string
		status int
		body   string
	}{
		{pathSubmit, http.StatusInternalServerError, `{"admitted":true}`},
		{pathSubmit, http.StatusAccepted, `not json`},
		{pathSubmit, http.StatusAccepted, `{"admitted":false}`},
		{pathSubmit, http.StatusAccepted, `{}`},
		{pathStats, http.StatusOK, `{"n":1}`},
		{pathStats, http.StatusServiceUnavailable, `{"completed":3}`},
		{pathMetrics, http.StatusOK, "hello"},
	}
	for _, b := range bad {
		if err := validate(b.path, b.status, []byte(b.body)); err == nil {
			t.Errorf("%s %d %q: accepted", b.path, b.status, b.body)
		}
	}
}

// TestStalledGeneratorInvalidatesRun checks that a generator that fell
// behind its schedule, or a failed request, fails the run's checks.
func TestStalledGeneratorInvalidatesRun(t *testing.T) {
	o := simOutcome(t)
	ok := &replayResult{out: o, answers: []answer{{path: pathSubmit}}, maxLate: time.Millisecond}
	r := newReport()
	r.checkReplay(ok)
	if len(r.failures) != 0 || r.failed != 0 || r.attempted != 1 {
		t.Fatalf("clean replay: failures %v, failed %d, attempted %d", r.failures, r.failed, r.attempted)
	}
	r = newReport()
	r.checkReplay(&replayResult{out: o, answers: ok.answers, maxLate: liveMaxLate + time.Millisecond})
	if len(r.failures) == 0 {
		t.Error("late generator passed")
	}
	r = newReport()
	r.checkReplay(&replayResult{out: o, answers: []answer{{path: pathStats, err: http.ErrHandlerTimeout}}, maxLate: time.Millisecond})
	if len(r.failures) == 0 || r.failed != 1 {
		t.Errorf("failed request: failures %v, failed %d", r.failures, r.failed)
	}
}

// TestBenchmarkFileMatchesCode checks that BENCHMARK.json names exactly the
// workloads and metrics this program reports, with the same units.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: file %+v, code %s: %s", i, w, workloads[i].name, workloads[i].why)
		}
	}
	for _, c := range []struct {
		what string
		file []metric
		code []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.file) != len(c.code) {
			t.Errorf("%s: file has %d metrics, the code %d", c.what, len(c.file), len(c.code))
			continue
		}
		for i, m := range c.file {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("%s %d: file %+v, code %+v", c.what, i, m, c.code[i])
			}
		}
	}
}

// TestFarClockStallReproduces pins the simulator defect that sizes
// table1-workflow. When it fails the defect is fixed: restore table1N to
// the ROADMAP's 1M transactions and delete farClockStall.
func TestFarClockStallReproduces(t *testing.T) {
	if err := farClockStall(); err == nil || !strings.Contains(err.Error(), "scheduling steps") {
		t.Fatalf("farClockStall() = %v, want the simulator's step-guard error", err)
	}
}
