// Command perfbench is the repository's benchmark: one command that runs a
// seeded workload, checks that the outputs are correct, and prints every
// metric by name and unit. Without tracing it reports the end-to-end
// metrics; with -trace 1 it wraps each layer's public entry points in timing
// decorators and reports the per-layer metrics instead (README.md).
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload table1-workflow --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, reported by untraced
// runs. Every workload reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"txn_per_s", "1/s"},
	{"allocs_per_txn", "count"},
	{"bytes_per_txn", "B"},
	{"peak_heap_mb", "MB"},
}

// perLayer are the metrics of the traced run. A workload that does not
// exercise a layer reports that layer's metrics as 0: the layer did no work.
var perLayer = []metricDef{
	{"workload.build_s", "s"},
	{"policy.init_ms", "ms"},
	{"policy.next_ns", "ns"},
	{"policy.arrival_ns", "ns"},
	{"policy.completion_ns", "ns"},
	{"policy.preempt_ns", "ns"},
	{"policy.share", "ratio"},
	{"policy.next_calls_per_txn", "count"},
	{"policy.preempts_per_txn", "count"},
	{"engine.self_ns_per_txn", "ns"},
	{"obs.events_per_txn", "count"},
	{"obs.ring_ns_per_event", "ns"},
	{"obs.span_ns_per_event", "ns"},
	{"obs.share", "ratio"},
	{"obs.registry_metrics", "count"},
	{"obs.prom_export_ms", "ms"},
	{"obs.prom_bytes", "B"},
	{"router.route_ns", "ns"},
	{"router.failovers", "count"},
	{"router.lost", "count"},
	{"contention.validate_fail_ratio", "ratio"},
	{"contention.defers_per_txn", "count"},
	{"slo.alert_events", "count"},
	{"http.submit_handler_p50_ms", "ms"},
	{"http.submit_handler_p99_ms", "ms"},
	{"http.stats_handler_p50_ms", "ms"},
	{"http.stats_handler_p99_ms", "ms"},
	{"http.metrics_handler_p50_ms", "ms"},
	{"http.metrics_handler_p99_ms", "ms"},
	{"http.metrics_bytes", "B"},
	{"http.submit_admitted_share", "ratio"},
	{"executor.completions", "count"},
	{"executor.shed", "count"},
	{"loadgen.max_late_ms", "ms"},
	{"loadgen.sent", "count"},
	{"trace.txn_per_s_ratio", "ratio"},
	// Outcome and live-latency figures. They are not gated: the outcome of
	// a fixed seed is pinned by its schedule digest, and the live latencies
	// exist on one workload only (README.md, "Metrics").
	{"miss_ratio", "ratio"},
	{"avg_weighted_tardiness", "units"},
	{"failed_share", "ratio"},
	{"submit_p50_ms", "ms"},
	{"submit_p99_ms", "ms"},
	{"scrape_p50_ms", "ms"},
	{"completion_lag_p99_ms", "ms"},
}

// options are one run's parameters.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	// short shrinks every workload to a size that runs in well under a
	// second, for the smoke test.
	short bool
}

// benchWorkload is one benchmark input: how to run it and why it was chosen.
type benchWorkload struct {
	name string
	why  string
	run  func(o options, r *report) error
}

var workloads = []benchWorkload{
	{"table1-workflow", "ASETS* on 100k Table-I workflow txns, no obs: the policy layer does most of the work", runTable1},
	{"fleet-contended", "4-instance EDF fleet on a Zipf keyspace with crashes and the live obs chain: obs, router, contention work", runFleet},
	{"live-mixed", "HTTP server replaying ASETS* under open-loop submit, stats and scrape traffic: executor and handlers work", runLive},
}

func findWorkload(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report collects what a workload run measured and which checks failed.
type report struct {
	attempted, failed int
	values            map[string]float64
	failures          []string
	configHash        string
	digest            string
	tr                *tracer // nil in untraced runs
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

// check records err, if any, as a failed correctness check. A failure that
// repeats on every run is recorded once.
func (r *report) check(err error) {
	if err == nil {
		return
	}
	msg := err.Error()
	for _, f := range r.failures {
		if f == msg {
			return
		}
	}
	r.failures = append(r.failures, msg)
}

// result assembles the output for the metric set the run must report. A
// metric the workload did not set is a bug in the benchmark, not a result.
func (r *report) result(defs []metricDef) (result, error) {
	out := result{
		Correct:   len(r.failures) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	var missing []string
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		return result{}, fmt.Errorf("metrics not measured: %v", missing)
	}
	if out.Attempted < 1 {
		return result{}, fmt.Errorf("no operation attempted")
	}
	return out, nil
}

// execute runs one workload and returns its report.
func execute(w benchWorkload, o options) (*report, error) {
	r := newReport()
	if o.trace {
		r.tr = newTracer()
	}
	if err := w.run(o, r); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if r.attempted > 0 {
		r.set("failed_share", float64(r.failed)/float64(r.attempted))
	}
	return r, nil
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 10, "measurement window per run, in seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer measurement, 0 the untraced end-to-end one")
		rev     = flag.String("rev", "unknown", "git revision being measured, for the manifest")
		out     = flag.String("out", filepath.Join(".bench_build", "trace"), "directory the traced run writes its spans to")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %v), -seconds >= 1 and -trace 0 or 1\n", names)
		os.Exit(2)
	}
	o := options{seed: *seed, seconds: float64(*seconds), trace: *trace == 1}
	if err := run(w, o, *rev, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(w benchWorkload, o options, rev, outDir string) error {
	start := time.Now()
	r, err := execute(w, o)
	if err != nil {
		return err
	}
	m := newManifest(rev, w.name, o, r.configHash)
	defs := endToEnd
	if o.trace {
		defs = perLayer
		path := filepath.Join(outDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, o.seed))
		if err := r.tr.write(path, m); err != nil {
			return err
		}
		fmt.Println("spans:", path)
	}
	res, err := r.result(defs)
	if err != nil {
		return err
	}
	mb, err := json.Marshal(m)
	if err != nil {
		return err
	}
	fmt.Println("manifest:", string(mb))
	fmt.Println("schedule digest:", r.digest)
	if err := farClockStall(); err != nil {
		fmt.Println("known defect reproduced, sim.Sim.Run past 2^24 time units:", err)
	} else {
		fmt.Println("known defect not reproduced: sim.Sim.Run completes past 2^24 time units")
	}
	printValues(r.values)
	for _, f := range r.failures {
		fmt.Println("CHECK FAILED:", f)
	}
	fmt.Printf("wall: %.1fs\n", time.Since(start).Seconds())
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printValues lists every measured value, including those outside the
// output line's metric set, for a reader of the log.
func printValues(values map[string]float64) {
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-32s %.6g\n", n, values[n])
	}
}
