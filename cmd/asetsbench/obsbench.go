// Observability overhead benchmark: quantifies what the instrumentation
// layer costs on the simulator hot path, and records the result as a small
// machine-readable JSON document (BENCH_obs.json in CI).
package main

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// obsBenchResult is the BENCH_obs.json document.
type obsBenchResult struct {
	N               int     `json:"n"`                   // transactions per simulated run
	BaselineNsPerOp int64   `json:"baseline_ns_per_op"`  // no instrumentation at all
	NopSinkNsPerOp  int64   `json:"nop_sink_ns_per_op"`  // obs.Discard sink, no registry (disabled)
	RingSinkNsPerOp int64   `json:"ring_sink_ns_per_op"` // bounded ring + registry (enabled)
	NopOverheadPct  float64 `json:"nop_overhead_pct"`
	RingOverheadPct float64 `json:"ring_overhead_pct"`
	// Per-configuration allocation profile of one full run (heap allocations
	// and bytes), so allocation regressions are visible independently of ns.
	BaselineAllocsPerOp int64 `json:"baseline_allocs_per_op"`
	BaselineBytesPerOp  int64 `json:"baseline_bytes_per_op"`
	NopSinkAllocsPerOp  int64 `json:"nop_sink_allocs_per_op"`
	NopSinkBytesPerOp   int64 `json:"nop_sink_bytes_per_op"`
	RingSinkAllocsPerOp int64 `json:"ring_sink_allocs_per_op"`
	RingSinkBytesPerOp  int64 `json:"ring_sink_bytes_per_op"`
	RunsPerBatch        int   `json:"runs_per_batch"`
	Batches             int   `json:"batches"`
}

// runObsBench measures full sim.Run calls under three configurations with
// measureOverhead's interleaved min-of-runs timer.
func runObsBench(w io.Writer, n, reps int) error {
	cfg := workload.Default(0.9, 1).WithWorkflows(4, 1).WithWeights()
	cfg.N = n
	set, err := workload.Generate(cfg)
	if err != nil {
		return err
	}

	// The ring and registry persist across runs, as a live server's would.
	ring := sim.Config{Sink: obs.NewRing(1024), Metrics: obs.NewRegistry()}
	cost, runs, batches, err := measureOverhead(set, reps, []func() sim.Config{
		func() sim.Config { return sim.Config{} }, // baseline: no instrumentation
		func() sim.Config { return sim.Config{Sink: obs.Discard} },
		func() sim.Config { return ring },
	})
	if err != nil {
		return err
	}
	baseline, nop, rg := cost[0], cost[1], cost[2]
	res := obsBenchResult{
		N:                   n,
		BaselineNsPerOp:     baseline.nsPerOp,
		NopSinkNsPerOp:      nop.nsPerOp,
		RingSinkNsPerOp:     rg.nsPerOp,
		NopOverheadPct:      overheadPct(nop.nsPerOp, baseline.nsPerOp),
		RingOverheadPct:     overheadPct(rg.nsPerOp, baseline.nsPerOp),
		BaselineAllocsPerOp: baseline.allocsPerOp,
		BaselineBytesPerOp:  baseline.bytesPerOp,
		NopSinkAllocsPerOp:  nop.allocsPerOp,
		NopSinkBytesPerOp:   nop.bytesPerOp,
		RingSinkAllocsPerOp: rg.allocsPerOp,
		RingSinkBytesPerOp:  rg.bytesPerOp,
		RunsPerBatch:        runs,
		Batches:             batches,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		return err
	}
	fmt.Printf("obs-bench: n=%d baseline=%dns nop-sink=%dns (%+.2f%%) ring-sink=%dns (%+.2f%%)\n",
		n, res.BaselineNsPerOp, res.NopSinkNsPerOp, res.NopOverheadPct, res.RingSinkNsPerOp, res.RingOverheadPct)
	return nil
}
