package obs

import (
	"strings"
	"testing"
)

// TestRegistrySketchSource: a span builder's sketch store registers with the
// registry once, and the registry snapshot carries its run-total sketches
// with the standard quantile trio.
func TestRegistrySketchSource(t *testing.T) {
	r := NewRegistry()
	b := NewSpanBuilder(spanTestSet(t), SpanOptions{Metrics: r})
	if snap := r.Snapshot(); len(snap.Sketches) != 0 {
		t.Fatalf("sketches exported before any completion: %+v", snap.Sketches)
	}
	windowEvents(b, 0, 0, 0) // response 0
	windowEvents(b, 2, 2, 4) // response 2
	windowEvents(b, 3, 3, 7) // response 4
	snap := r.Snapshot()
	if len(snap.Sketches) != 3 {
		t.Fatalf("snapshot has %d sketches, want the 3 run totals", len(snap.Sketches))
	}
	for i, name := range []string{MetricSpanResponse, MetricSpanSlowdown, MetricSpanTardiness} {
		if snap.Sketches[i].Name != name {
			t.Fatalf("sketch %d is %q, want %q (name order)", i, snap.Sketches[i].Name, name)
		}
	}
	sv := snap.Sketches[0]
	if sv.Count != 3 || sv.Sum != 6 || sv.Max != 4 {
		t.Fatalf("response snapshot %+v", sv)
	}
	if len(sv.Quantiles) != 3 || sv.Quantiles[0].Q != 0.5 || sv.Quantiles[2].Q != 0.99 {
		t.Fatalf("quantiles %+v", sv.Quantiles)
	}
}

// TestRegistrySketchTypeConflict: a sketch family whose base name another
// metric (or another sketch source) already holds panics at registration.
func TestRegistrySketchTypeConflict(t *testing.T) {
	set := spanTestSet(t)
	for name, reg := range map[string]func(*Registry){
		"counter": func(r *Registry) { r.Counter(MetricSpanTardiness, "") },
		"source":  func(r *Registry) { NewSpanBuilder(set, SpanOptions{Metrics: r}) },
	} {
		func() {
			r := NewRegistry()
			reg(r)
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: sketch source over a taken name did not panic", name)
				}
			}()
			NewSpanBuilder(set, SpanOptions{Metrics: r})
		}()
	}
	r := NewRegistry()
	NewSpanBuilder(set, SpanOptions{Metrics: r})
	defer func() {
		if recover() == nil {
			t.Fatal("gauge over a sketch base name did not panic")
		}
	}()
	r.Gauge("asets_window_response", "")
}

func TestPrometheusSketchExport(t *testing.T) {
	r := NewRegistry()
	b := NewSpanBuilder(spanTestSet(t), SpanOptions{Metrics: r})
	for i, resp := range []float64{0, 1, 2, 3} {
		windowEvents(b, i, 0, resp)
	}
	var out strings.Builder
	if err := WritePrometheus(&out, r); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# HELP asets_span_response per-span response time quantile sketch",
		"# TYPE asets_span_response summary",
		`asets_span_response{quantile="0.5"} `,
		`asets_span_response{quantile="0.95"} `,
		`asets_span_response{quantile="0.99"} `,
		"asets_span_response_sum 6",
		"asets_span_response_count 4",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("export missing %q:\n%s", want, out.String())
		}
	}
}

func TestSpliceLabel(t *testing.T) {
	if got := spliceLabel("", "quantile", "0.5"); got != `{quantile="0.5"}` {
		t.Fatalf("empty labels: %q", got)
	}
	if got := spliceLabel(`{a="b"}`, "quantile", "0.5"); got != `{a="b",quantile="0.5"}` {
		t.Fatalf("non-empty labels: %q", got)
	}
}
