// Scale benchmark: one 100k-transaction run with the full observability
// pipeline enabled (event ring + span builder + windowed sketches +
// registry), recording ns/txn and allocs/txn into BENCH_scale.json and
// enforcing the overhead budgets — the bench exits non-zero on a budget
// regression, which is what lets scripts/check.sh and CI gate on it without
// any JSON parsing. ROADMAP item 2 names the instrumentation layer's cost
// the blocker to raising harness scale from ~1k to 100k–1M transactions;
// this document is the contract that keeps it cheap.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Enforced budgets. Allocation counts on the single-goroutine decision loop
// are deterministic, so the allocs/txn budget is tight: the enabled path
// allocates spans only on pool misses plus amortized container warm-up.
// The ns budget is generous — wall-clock on shared CI hardware is noisy —
// and exists to catch order-of-magnitude regressions, not percent drift.
// To re-baseline after an intentional change, run
// `go run ./cmd/asetsbench -scale-bench BENCH_scale.json`, inspect the new
// numbers, and update these constants in the same commit (see
// docs/OBSERVABILITY.md, "Overhead budgets").
const (
	// scaleBudgetObsAllocsPerTxn bounds the observability layer's own heap
	// allocations per transaction: enabled-run allocs/txn minus
	// baseline-run allocs/txn, so scheduler-internal allocations (audited
	// separately by asetslint's hotpath-alloc budget) don't mask or inflate
	// the instrumentation cost. Current measured value ≈ 0.12 (sketch
	// bucket arrays and window-cell slabs, amortized across the run).
	scaleBudgetObsAllocsPerTxn = 1.0
	// scaleBudgetOverheadPct bounds the enabled pipeline's ns/txn overhead
	// over the uninstrumented baseline. Current measured value ≈ 100%.
	scaleBudgetOverheadPct = 150.0
)

// scaleBenchResult is the BENCH_scale.json document.
type scaleBenchResult struct {
	N                    int     `json:"n"`
	BaselineNsPerTxn     float64 `json:"baseline_ns_per_txn"`
	EnabledNsPerTxn      float64 `json:"enabled_ns_per_txn"`
	OverheadPct          float64 `json:"overhead_pct"`
	BaselineAllocsPerTxn float64 `json:"baseline_allocs_per_txn"`
	EnabledAllocsPerTxn  float64 `json:"enabled_allocs_per_txn"`
	// ObsAllocsPerTxn is the enforced number: what observing costs on top
	// of the uninstrumented run, in allocations per transaction.
	ObsAllocsPerTxn    float64 `json:"obs_allocs_per_txn"`
	EnabledBytesPerTxn float64 `json:"enabled_bytes_per_txn"`
	// PoolHits/PoolMisses are the span free-list self-telemetry of the
	// alloc-measured enabled run.
	PoolHits   uint64 `json:"pool_hits"`
	PoolMisses uint64 `json:"pool_misses"`
	// The budgets the run was gated against, and the verdict.
	BudgetAllocsPerTxn float64 `json:"budget_allocs_per_txn"`
	BudgetOverheadPct  float64 `json:"budget_overhead_pct"`
	Pass               bool    `json:"pass"`
}

// runScaleBench measures one large run uninstrumented and one with the full
// observability pipeline (the server's wiring: ring, span builder with
// windowed sketches and a Keep bound, registry), then gates the result
// against the budgets above. Timing interleaves the two configurations
// best-of-three; allocations are measured on a single run each, since
// allocation counts are deterministic.
func runScaleBench(w io.Writer, n int) error {
	cfg := workload.Default(0.9, 1).WithWorkflows(4, 1).WithWeights()
	cfg.N = n
	set, err := workload.Generate(cfg)
	if err != nil {
		return err
	}

	// The tumbling window scales with the replay so the windowed export
	// keeps a bounded cell count (~128 windows) at any n; a fixed width
	// would turn windows into near-per-completion cells at 100k
	// transactions and measure registration, not observation.
	var totalWork float64
	for _, t := range set.Txns {
		totalWork += t.Length
	}
	window := totalWork / 128

	baseline := func() sim.Config { return sim.Config{} }
	enabled := func(ov *obs.Overhead) sim.Config {
		reg := obs.NewRegistry()
		return sim.Config{
			Sink: obs.Tee(
				obs.NewRing(1024),
				obs.NewSpanBuilder(set, obs.SpanOptions{
					Metrics: reg, Window: window, Keep: 1024, Overhead: ov,
				}),
			),
			Metrics: reg,
		}
	}

	run := func(cfg sim.Config) (time.Duration, error) {
		start := time.Now()
		_, err := sim.New(cfg).Run(set, core.New())
		return time.Since(start), err
	}
	time3 := func(mk func() sim.Config) (time.Duration, error) {
		var best time.Duration
		for i := 0; i < 3; i++ {
			d, err := run(mk())
			if err != nil {
				return 0, err
			}
			if best == 0 || d < best {
				best = d
			}
		}
		return best, nil
	}

	// Warm up both paths (page-in, registry construction patterns, JIT-ish
	// map growth), then time interleaved.
	if _, err := run(baseline()); err != nil {
		return err
	}
	if _, err := run(enabled(nil)); err != nil {
		return err
	}
	baseDur, err := time3(baseline)
	if err != nil {
		return err
	}
	enDur, err := time3(func() sim.Config { return enabled(nil) })
	if err != nil {
		return err
	}

	baseAllocs, _, err := measureAllocs(1, func() error {
		_, err := sim.New(baseline()).Run(set, core.New())
		return err
	})
	if err != nil {
		return err
	}
	ov := obs.NewOverhead()
	enAllocs, enBytes, err := measureAllocs(1, func() error {
		_, err := sim.New(enabled(ov)).Run(set, core.New())
		return err
	})
	if err != nil {
		return err
	}
	pool := ov.Stats()

	fn := float64(n)
	res := scaleBenchResult{
		N:                    n,
		BaselineNsPerTxn:     float64(baseDur.Nanoseconds()) / fn,
		EnabledNsPerTxn:      float64(enDur.Nanoseconds()) / fn,
		BaselineAllocsPerTxn: float64(baseAllocs) / fn,
		EnabledAllocsPerTxn:  float64(enAllocs) / fn,
		EnabledBytesPerTxn:   float64(enBytes) / fn,
		PoolHits:             pool.PoolHits,
		PoolMisses:           pool.PoolMisses,
		BudgetAllocsPerTxn:   scaleBudgetObsAllocsPerTxn,
		BudgetOverheadPct:    scaleBudgetOverheadPct,
	}
	res.ObsAllocsPerTxn = res.EnabledAllocsPerTxn - res.BaselineAllocsPerTxn
	res.OverheadPct = 100 * (res.EnabledNsPerTxn - res.BaselineNsPerTxn) / res.BaselineNsPerTxn
	res.Pass = res.ObsAllocsPerTxn <= scaleBudgetObsAllocsPerTxn &&
		res.OverheadPct <= scaleBudgetOverheadPct

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		return err
	}
	fmt.Printf("scale-bench: n=%d baseline=%.0fns/txn enabled=%.0fns/txn (%+.2f%%) obs-allocs/txn=%.4f (budget %.2f) pool=%d/%d hit/miss\n",
		n, res.BaselineNsPerTxn, res.EnabledNsPerTxn, res.OverheadPct,
		res.ObsAllocsPerTxn, res.BudgetAllocsPerTxn, res.PoolHits, res.PoolMisses)
	if !res.Pass {
		return fmt.Errorf("overhead budget exceeded: obs allocs/txn %.4f (budget %.2f), overhead %.2f%% (budget %.0f%%)",
			res.ObsAllocsPerTxn, res.BudgetAllocsPerTxn, res.OverheadPct, scaleBudgetOverheadPct)
	}
	return nil
}
