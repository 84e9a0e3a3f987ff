// The measurement code the benchmark modes share: an interleaved
// min-of-runs timer with an allocation profile, and an event-stream digest
// for the serial==parallel determinism gates.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/txn"
)

// measureAllocs reports heap allocations and bytes per operation for reps
// executions of fn, via runtime.MemStats deltas. Mallocs and TotalAlloc are
// monotonic, so the numbers are immune to GC running mid-measurement; a GC
// beforehand keeps survivors of earlier phases from inflating the first op.
// Allocation counts on a single-goroutine workload are deterministic, which
// is what lets BENCH budgets gate on allocs/op tightly while ns/op budgets
// stay generous.
func measureAllocs(reps int, fn func() error) (allocsPerOp, bytesPerOp int64, err error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		if err := fn(); err != nil {
			return 0, 0, err
		}
	}
	runtime.ReadMemStats(&after)
	r := uint64(reps)
	return int64((after.Mallocs - before.Mallocs) / r), int64((after.TotalAlloc - before.TotalAlloc) / r), nil
}

// overhead is one configuration's cost in an overhead benchmark.
type overhead struct {
	nsPerOp, allocsPerOp, bytesPerOp int64
}

// measureOverhead times full ASETS* sim.Run calls over set under each
// configuration (configs[0] is the baseline, and a fresh Config is built per
// run, so per-run sink state is part of what is measured), then profiles one
// run's allocations per configuration. It also returns the runs per batch
// and the batch count it used.
//
// The timed batches are interleaved round-robin across configurations and
// each configuration keeps its fastest individually-timed run, so slow
// machine-wide drift — thermal throttling, a noisy CI neighbor — biases
// every configuration equally instead of whichever happened to run in the
// quiet block. On a shared box, noise arrives in bursts long enough to cover
// a whole multi-run batch, but a quiet single-run window (~ms) is common, so
// min-of-runs converges where best-of-batch-averages cannot. The GC flush at
// the batch boundary keeps one configuration's concurrent mark debt from
// bleeding into its neighbor's timings; collections triggered mid-batch still
// charge (via mark assists) the configuration whose allocations forced them.
func measureOverhead(set *txn.Set, reps int, configs []func() sim.Config) (res []overhead, runs, batches int, err error) {
	run := func(mk func() sim.Config) error {
		_, err := sim.New(mk()).Run(set, core.New())
		return err
	}
	runBatch := func(mk func() sim.Config, runs int, best time.Duration) (time.Duration, error) {
		runtime.GC()
		for j := 0; j < runs; j++ {
			start := time.Now()
			if err := run(mk); err != nil {
				return 0, err
			}
			if d := time.Since(start); best == 0 || d < best {
				best = d
			}
		}
		return best, nil
	}

	// Size batches to ~50ms each, calibrated on a baseline warmup run
	// (which also pages everything in before timing starts).
	warmupStart := time.Now()
	if _, err := runBatch(configs[0], 1, 0); err != nil {
		return nil, 0, 0, err
	}
	warmup := time.Since(warmupStart)
	runs = int(50 * time.Millisecond / (warmup + 1))
	if runs < 10 {
		runs = 10
	}
	batches = 4 * reps

	best := make([]time.Duration, len(configs))
	for round := 0; round < batches; round++ {
		for i, mk := range configs {
			if best[i], err = runBatch(mk, runs, best[i]); err != nil {
				return nil, 0, 0, err
			}
		}
	}

	res = make([]overhead, len(configs))
	for i, mk := range configs {
		res[i].nsPerOp = best[i].Nanoseconds()
		res[i].allocsPerOp, res[i].bytesPerOp, err = measureAllocs(5, func() error { return run(mk) })
		if err != nil {
			return nil, 0, 0, err
		}
	}
	return res, runs, batches, nil
}

// overheadPct is v's cost over baseline, in percent.
func overheadPct(v, baseline int64) float64 {
	return 100 * (float64(v) - float64(baseline)) / float64(baseline)
}

// streamDigest hashes the jobs' event streams in job order, one JSON line
// per event, and counts the events whose kind is among count.
func streamDigest(cols []*obs.Collector, count ...obs.Kind) ([32]byte, int, error) {
	var buf bytes.Buffer
	n := 0
	for _, col := range cols {
		for _, ev := range col.Events() {
			for _, k := range count {
				if ev.Kind == k {
					n++
				}
			}
			b, err := json.Marshal(ev)
			if err != nil {
				return [32]byte{}, 0, err
			}
			buf.Write(b)
			buf.WriteByte('\n')
		}
	}
	return sha256.Sum256(buf.Bytes()), n, nil
}
