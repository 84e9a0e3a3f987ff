// Span-pipeline overhead benchmark: quantifies what the causal-span builder
// and its windowed percentile sketches cost on the simulator hot path,
// records the result as a small machine-readable JSON document
// (BENCH_span.json in CI), and gates the sketch layer's cost against the
// span builder timed in the same invocation — the bench exits non-zero on a
// breach, so scripts/check.sh and CI gate on it.
package main

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Enforced budgets for the windowed sketches, both measured against the
// spans-only configuration of the same invocation so they hold on any host
// (docs/OBSERVABILITY.md, "Overhead budgets").
const (
	// spanBudgetSketchAllocsPerTxn bounds the heap allocations the sketches
	// add per transaction: (spans+sketch allocs − spans allocs) / n.
	// Allocation counts are deterministic; the measured value is ≈ 1.7.
	spanBudgetSketchAllocsPerTxn = 4.0
	// spanBudgetSketchTimeRatio bounds spans+sketch ns/op over spans-only
	// ns/op. The measured ratio is ≈ 1.7–1.8.
	spanBudgetSketchTimeRatio = 2.5
)

// spanBenchResult is the BENCH_span.json document.
type spanBenchResult struct {
	N                  int     `json:"n"`                      // transactions per simulated run
	BaselineNsPerOp    int64   `json:"baseline_ns_per_op"`     // no instrumentation at all
	SpansNsPerOp       int64   `json:"spans_ns_per_op"`        // span builder, no sketches
	SpansSketchNsPerOp int64   `json:"spans_sketch_ns_per_op"` // span builder + windowed sketches
	SpansOverheadPct   float64 `json:"spans_overhead_pct"`
	SketchOverheadPct  float64 `json:"spans_sketch_overhead_pct"`
	// Per-configuration allocation profile of one full run (heap allocations
	// and bytes), so allocation regressions are visible independently of ns.
	BaselineAllocsPerOp    int64 `json:"baseline_allocs_per_op"`
	BaselineBytesPerOp     int64 `json:"baseline_bytes_per_op"`
	SpansAllocsPerOp       int64 `json:"spans_allocs_per_op"`
	SpansBytesPerOp        int64 `json:"spans_bytes_per_op"`
	SpansSketchAllocsPerOp int64 `json:"spans_sketch_allocs_per_op"`
	SpansSketchBytesPerOp  int64 `json:"spans_sketch_bytes_per_op"`
	RunsPerBatch           int   `json:"runs_per_batch"`
	Batches                int   `json:"batches"`
	// The gated quantities, the budgets they were gated against, and the
	// verdict. spans_sketch_overhead_pct above is reported against
	// ROADMAP's ≤100% target but not gated: its baseline is the run with
	// no instrumentation at all, whose sub-millisecond timing swings too
	// much to gate on.
	SketchAllocsPerTxn       float64 `json:"sketch_allocs_per_txn"`
	SketchTimeRatio          float64 `json:"sketch_time_ratio"`
	BudgetSketchAllocsPerTxn float64 `json:"budget_sketch_allocs_per_txn"`
	BudgetSketchTimeRatio    float64 `json:"budget_sketch_time_ratio"`
	Pass                     bool    `json:"pass"`
}

// runSpanBench measures full sim.Run calls with the span pipeline off, on,
// and on with sketch observation, with measureOverhead's interleaved
// min-of-runs timer.
func runSpanBench(w io.Writer, n, reps int) error {
	cfg := workload.Default(0.9, 1).WithWorkflows(4, 1).WithWeights()
	cfg.N = n
	set, err := workload.Generate(cfg)
	if err != nil {
		return err
	}

	// The span builder holds per-run state, so each run builds a fresh one
	// (that cost is part of what is being measured).
	cost, runs, batches, err := measureOverhead(set, reps, []func() sim.Config{
		func() sim.Config { return sim.Config{} },
		func() sim.Config {
			return sim.Config{Sink: obs.NewSpanBuilder(set, obs.SpanOptions{})}
		},
		func() sim.Config {
			return sim.Config{Sink: obs.NewSpanBuilder(set, obs.SpanOptions{
				Metrics: obs.NewRegistry(), Window: 100,
			})}
		},
	})
	if err != nil {
		return err
	}
	baseline, spans, sketch := cost[0], cost[1], cost[2]
	res := spanBenchResult{
		N:                        n,
		BaselineNsPerOp:          baseline.nsPerOp,
		SpansNsPerOp:             spans.nsPerOp,
		SpansSketchNsPerOp:       sketch.nsPerOp,
		SpansOverheadPct:         overheadPct(spans.nsPerOp, baseline.nsPerOp),
		SketchOverheadPct:        overheadPct(sketch.nsPerOp, baseline.nsPerOp),
		BaselineAllocsPerOp:      baseline.allocsPerOp,
		BaselineBytesPerOp:       baseline.bytesPerOp,
		SpansAllocsPerOp:         spans.allocsPerOp,
		SpansBytesPerOp:          spans.bytesPerOp,
		SpansSketchAllocsPerOp:   sketch.allocsPerOp,
		SpansSketchBytesPerOp:    sketch.bytesPerOp,
		RunsPerBatch:             runs,
		Batches:                  batches,
		SketchAllocsPerTxn:       float64(sketch.allocsPerOp-spans.allocsPerOp) / float64(n),
		SketchTimeRatio:          float64(sketch.nsPerOp) / float64(spans.nsPerOp),
		BudgetSketchAllocsPerTxn: spanBudgetSketchAllocsPerTxn,
		BudgetSketchTimeRatio:    spanBudgetSketchTimeRatio,
	}
	res.Pass = res.SketchAllocsPerTxn <= spanBudgetSketchAllocsPerTxn &&
		res.SketchTimeRatio <= spanBudgetSketchTimeRatio
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		return err
	}
	fmt.Printf("span-bench: n=%d baseline=%dns spans=%dns (%+.2f%%) spans+sketch=%dns (%+.2f%%, %.2f× spans) sketch-allocs/txn=%.2f\n",
		n, res.BaselineNsPerOp, res.SpansNsPerOp, res.SpansOverheadPct, res.SpansSketchNsPerOp, res.SketchOverheadPct,
		res.SketchTimeRatio, res.SketchAllocsPerTxn)
	if !res.Pass {
		return fmt.Errorf("sketch budget exceeded: allocs/txn %.2f (budget %.1f), time %.2f× spans (budget %.1f×)",
			res.SketchAllocsPerTxn, spanBudgetSketchAllocsPerTxn, res.SketchTimeRatio, spanBudgetSketchTimeRatio)
	}
	return nil
}
