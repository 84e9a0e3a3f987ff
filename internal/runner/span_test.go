package runner

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/txn"
	"repro/internal/workload"
)

// TestSpanSketchesBitIdenticalAcrossWorkers: a sweep instrumented with
// per-job span builders and windowed quantile sketches must leave every job
// with byte-identical /metrics text and span JSONL whether the pool runs it
// serially or on several workers. It exercises the whole per-job chain:
// SpanBuilder folding, sketch observation and the Prometheus summary
// rendering.
func TestSpanSketchesBitIdenticalAcrossWorkers(t *testing.T) {
	type cell struct {
		set *txn.Set
		mk  func() sched.Scheduler
	}
	var cells []cell
	for _, u := range []float64{0.7, 1.0} {
		for seed := uint64(1); seed <= 2; seed++ {
			cfg := workload.Default(u, seed).WithWorkflows(4, 1).WithWeights()
			cfg.N = 120
			set := workload.MustGenerate(cfg)
			cells = append(cells,
				cell{set, sched.NewEDF},
				cell{set, func() sched.Scheduler { return core.New() }})
		}
	}

	// run returns each job's Prometheus text and span JSONL, in job order.
	run := func(workers int) (proms, spans []string) {
		jobs := make([]Job, len(cells))
		builders := make([]*obs.SpanBuilder, len(cells))
		for i, c := range cells {
			reg := obs.NewRegistry()
			sb := obs.NewSpanBuilder(c.set, obs.SpanOptions{Metrics: reg, Window: 25})
			builders[i] = sb
			jobs[i] = Job{
				Set:    c.set,
				New:    c.mk,
				Config: sim.Config{Sink: sb, Metrics: reg},
			}
		}
		if _, err := (Pool{Workers: workers}).Run(context.Background(), jobs); err != nil {
			t.Fatal(err)
		}
		for i, sb := range builders {
			var prom, js strings.Builder
			if err := obs.WritePrometheus(&prom, jobs[i].Config.Metrics); err != nil {
				t.Fatal(err)
			}
			if err := obs.WriteSpans(&js, sb.Spans()); err != nil {
				t.Fatal(err)
			}
			proms = append(proms, prom.String())
			spans = append(spans, js.String())
		}
		return proms, spans
	}

	serialProms, serialSpans := run(1)
	for i, prom := range serialProms {
		if !strings.Contains(prom, "# TYPE asets_span_tardiness summary") {
			t.Fatalf("job %d export lacks span sketches:\n%s", i, prom)
		}
		if !strings.Contains(prom, `asets_window_tardiness{window="`) {
			t.Fatalf("job %d export lacks windowed sketches:\n%s", i, prom)
		}
	}
	for _, workers := range []int{2, 4} {
		proms, spans := run(workers)
		for i := range serialProms {
			if proms[i] != serialProms[i] {
				t.Errorf("workers=%d job %d: /metrics text differs from serial", workers, i)
			}
			if spans[i] != serialSpans[i] {
				t.Errorf("workers=%d job %d: span JSONL differs from serial", workers, i)
			}
		}
	}
}
