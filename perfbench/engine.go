package main

import (
	"runtime"
	"strings"
	"time"
)

// minRuns is the fewest measured runs a sim result rests on, however short
// the window.
const minRuns = 3

// warmupShare is the part of the window that an untimed warm-up adds before
// a sim workload's timed runs: a fresh process runs slower for its first
// seconds, while its heap grows to the size the runs settle at.
const warmupShare = 1.0 / 3

// A run builds its workload at least setupMinBuilds times and for at least
// setupMinTime, and reports the median build time as setup_s: a quick build
// is repeated often enough that scheduler noise averages out.
const (
	setupMinBuilds = 3
	setupMinTime   = time.Second
)

func window(o options) time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// repeatBuild calls build as setup_s prescribes and returns the last result
// with the median build's CPU time in seconds. Earlier results are dropped
// before the next build starts, so at most one is live at a time.
func repeatBuild[T any](build func() (T, error)) (T, float64, error) {
	var times []float64
	var last T
	var zero T
	for begin := time.Now(); len(times) < setupMinBuilds || time.Since(begin) < setupMinTime; {
		last = zero
		runtime.GC()
		start := cpuTime()
		v, err := build()
		if err != nil {
			return zero, 0, err
		}
		times = append(times, (cpuTime() - start).Seconds())
		last = v
	}
	return last, median(times), nil
}

// runFunc performs one engine run over the workload's set. A traced run
// goes through the layer decorators of the report's tracer. The outcome
// holds the set even when the engine fails, so the failure can be counted.
type runFunc func(traced bool) (outcome, error)

// runSample is one timed engine run. err is the engine's own failure: the
// run is counted and reported, not aborted, so a defect in the program
// shows as failed transactions and "correct": false.
type runSample struct {
	wall, cpu      time.Duration
	mallocs, bytes float64
	out            outcome
	err            error
	digest         string
}

// check reports the engine's failure, or else the outcome's check.
func (s runSample) check() error {
	if s.err != nil {
		return s.err
	}
	return s.out.check()
}

// timeRun times one run from a collected heap, so each run starts from the
// same garbage-free state.
func timeRun(r *report, run runFunc, traced bool) runSample {
	runtime.GC()
	a := startAllocs()
	var id int64
	cpu := cpuTime()
	start := time.Now()
	if traced {
		id, start = r.tr.beginRun()
	}
	out, err := run(traced)
	wall := time.Since(start)
	if traced {
		wall = r.tr.endRun(id, start)
	}
	cpu = cpuTime() - cpu
	m, b := a.stop()
	return runSample{wall: wall, cpu: cpu, mallocs: m, bytes: b, out: out, err: err, digest: scheduleDigest(out.set)}
}

// count adds a run's transactions to the attempted and failed totals.
func (r *report) count(s runSample) {
	r.attempted += s.out.set.Len()
	r.failed += s.out.failures()
}

// measureSim is the untraced measurement of a sim workload: warm-up runs
// for warmupShare of the window, then timed runs until the window closes.
// Every run is checked, and must reproduce the first run's schedule.
func measureSim(o options, r *report, run runFunc) {
	warm := timeRun(r, run, false)
	r.check(warm.check())
	r.digest = warm.digest
	r.setOutcome(warm.out)
	n := float64(warm.out.set.Len())
	for end := time.Now().Add(time.Duration(warmupShare * float64(window(o)))); time.Now().Before(end); {
		s := timeRun(r, run, false)
		r.check(s.check())
		r.check(checkDigest("repeated run", s.digest, r.digest))
		r.count(s)
	}

	var tps, wallTps, allocs, bytes []float64
	heap := startHeapSampler()
	deadline := time.Now().Add(window(o))
	for len(tps) < minRuns || time.Now().Before(deadline) {
		s := timeRun(r, run, false)
		heap.lap()
		r.check(s.check())
		r.check(checkDigest("repeated run", s.digest, r.digest))
		r.count(s)
		tps = append(tps, n/s.cpu.Seconds())
		wallTps = append(wallTps, n/s.wall.Seconds())
		allocs = append(allocs, s.mallocs/n)
		bytes = append(bytes, s.bytes/n)
	}
	r.set("peak_heap_mb", heap.stop())
	r.set("txn_per_s", median(tps))
	r.set("txn_per_wall_s", median(wallTps))
	r.set("allocs_per_txn", median(allocs))
	r.set("bytes_per_txn", median(bytes))
}

// traceSim is the traced measurement of a sim workload. It alternates
// untraced and traced runs until the window closes: each traced run must
// reproduce its untraced partner's schedule, and their speed ratio is the
// tracing overhead. It returns the traced runs.
func traceSim(o options, r *report, run runFunc) []runSample {
	warm := timeRun(r, run, false)
	r.check(warm.check())
	r.digest = warm.digest
	r.setOutcome(warm.out)
	n := warm.out.set.Len()

	var traced []runSample
	var ratios []float64
	deadline := time.Now().Add(window(o))
	for len(traced) == 0 || time.Now().Before(deadline) {
		u := timeRun(r, run, false)
		r.tr.completions = make([]int, n)
		t := timeRun(r, run, true)
		t.out.completions, r.tr.completions = r.tr.completions, nil
		r.check(u.check())
		r.check(t.check())
		r.check(checkDigest("traced run", t.digest, u.digest))
		r.count(u)
		r.count(t)
		ratios = append(ratios, u.cpu.Seconds()/t.cpu.Seconds())
		traced = append(traced, t)
	}
	r.set("trace.txn_per_s_ratio", median(ratios))
	return traced
}

func totalWall(runs []runSample) time.Duration {
	var d time.Duration
	for _, s := range runs {
		d += s.wall
	}
	return d
}

// setOutcome records the run's quality figures, which a fixed seed pins.
func (r *report) setOutcome(out outcome) {
	r.set("miss_ratio", out.missRatio)
	r.set("avg_weighted_tardiness", out.avgWeightedTardiness)
}

// setPolicyLayer derives the policy and engine metrics from the traced runs:
// wall is their total time and txns the transactions they ran. Sink and
// router time come from the ops the workload wired, if any.
func (r *report) setPolicyLayer(wall time.Duration, txns int) {
	tr := r.tr
	get := func(layer, name string) *op { return tr.op(layer, name, false) }
	init, next, arrival, completion, preempt :=
		get("policy", "init"), get("policy", "next"), get("policy", "arrival"), get("policy", "completion"), get("policy", "preempt")
	policyNs := init.ns.Load() + next.ns.Load() + arrival.ns.Load() + completion.ns.Load() + preempt.ns.Load()
	policySelf := policyNs - tr.nestedSinkNs
	sinkNs := get("obs", "ring").ns.Load() + get("obs", "span").ns.Load()
	routerNs := get("router", "pick").ns.Load()
	ft := float64(txns)
	if c := init.calls.Load(); c > 0 {
		r.set("policy.init_ms", float64(init.ns.Load())/float64(c)/1e6)
	} else {
		r.set("policy.init_ms", 0)
	}
	r.set("policy.next_ns", next.nsPer(false))
	r.set("policy.arrival_ns", arrival.nsPer(false))
	r.set("policy.completion_ns", completion.nsPer(false))
	r.set("policy.preempt_ns", preempt.nsPer(false))
	r.set("policy.share", float64(policySelf)/float64(wall))
	r.set("policy.next_calls_per_txn", float64(next.calls.Load())/ft)
	r.set("policy.preempts_per_txn", float64(preempt.calls.Load())/ft)
	r.set("engine.self_ns_per_txn", float64(int64(wall)-policySelf-sinkNs-routerNs)/ft)
}

// idle reports every per-layer metric under the given prefixes as 0: the
// workload does not exercise those layers.
func (r *report) idle(prefixes ...string) {
	for _, d := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(d.name, p) {
				r.set(d.name, 0)
			}
		}
	}
}
