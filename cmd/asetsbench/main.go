// Command asetsbench regenerates the tables and figures of "Adaptive
// Scheduling of Web Transactions" (ICDE 2009) at full paper scale: 1000
// transactions per workload, five seeded runs per data point, full
// utilization sweeps.
//
// Usage:
//
//	asetsbench                         # run every experiment
//	asetsbench -figure fig10           # run one (fig8..fig17, tab1, alpha, abl-rule, abl-count)
//	asetsbench -figure fig14 -chart    # add an ASCII chart of the series
//	asetsbench -csv out/               # also write one CSV per figure
//	asetsbench -n 500 -seeds 3         # scale down for a quick look
//	asetsbench -list                   # list experiment IDs
//	asetsbench -obs-bench BENCH_obs.json   # instrumentation overhead
//	asetsbench -span-bench BENCH_span.json   # span + sketch overhead
//	asetsbench -fault-bench BENCH_fault.json -n 300   # overload shedding sweep
//	asetsbench -parallel-bench BENCH_parallel.json -n 300 -seeds 2   # pool speedup + bit-exactness
//	asetsbench -cluster-bench BENCH_cluster.json -n 300   # failover vs no-failover strawman
//	asetsbench -contention-bench BENCH_contention.json -n 300   # conflict-aware vs blind dispatch
//	asetsbench -slo-bench BENCH_slo.json -n 300   # alert lead time on the overload sweep
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/cliflag"
	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/svgplot"
)

func main() {
	var (
		figure   = flag.String("figure", "all", "experiment id to run, or 'all'")
		n        = flag.Int("n", 1000, "transactions per workload (paper: 1000)")
		seeds    = flag.Int("seeds", 5, "seeded runs per data point (paper: 5)")
		parallel = flag.Int("parallel", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		validate = flag.Bool("validate", false, "validate every schedule against the trace checker")
		chart    = flag.Bool("chart", false, "render an ASCII chart under each table")
		csvDir   = flag.String("csv", "", "directory to write per-figure CSV files into")
		svgDir   = flag.String("svg", "", "directory to write per-figure SVG charts into")
		jsonDir  = flag.String("json", "", "directory to write per-figure JSON results into")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		scaleN   = flag.Int("scale-n", 100000, "transactions for -scale-bench")
	)
	seed := cliflag.AddSeed(flag.CommandLine)
	sloFlags := cliflag.AddSLO(flag.CommandLine)
	// The benchmark modes, in precedence order: the first one given writes
	// its JSON report to the flag's path and exits. The closures read the
	// shared flags after Parse.
	benches := []struct {
		flag, usage string
		run         func(w io.Writer) error
	}{
		{"obs-bench", "benchmark instrumentation overhead",
			func(w io.Writer) error { return runObsBench(w, *n, 6) }},
		{"scale-bench", "run the 100k-transaction observability scale benchmark with enforced budgets",
			func(w io.Writer) error { return runScaleBench(w, *scaleN) }},
		{"span-bench", "benchmark span-builder and sketch overhead",
			func(w io.Writer) error { return runSpanBench(w, *n, 6) }},
		{"parallel-bench", "benchmark the parallel runner against the serial path",
			func(w io.Writer) error { return runParallelBench(w, *n, min(*seeds, 2), *parallel, *seed) }},
		{"cluster-bench", "benchmark cluster failover vs a no-failover strawman under an instance crash",
			func(w io.Writer) error { return runClusterBench(w, *n, min(*seeds, 3)) }},
		{"slo-bench", "benchmark SLO alert lead time on the Table-I overload sweep",
			func(w io.Writer) error { return runSLOBench(w, *n, min(*seeds, 3), sloFlags.Config()) }},
		{"contention-bench", "benchmark conflict-aware dispatch vs blind ASETS* on Zipf-contended workloads",
			func(w io.Writer) error { return runContentionBench(w, *n, min(*seeds, 3)) }},
		{"fault-bench", "sweep overload shedding vs open admission under a fault plan",
			func(w io.Writer) error { return runFaultBench(w, *n, min(*seeds, 3)) }},
	}
	paths := make([]*string, len(benches))
	for i, b := range benches {
		paths[i] = flag.String(b.flag, "", b.usage+", write JSON to this path, and exit")
	}
	flag.Parse()
	if err := sloFlags.Load(); err != nil {
		cliflag.Fatal("asetsbench", err)
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	for i, b := range benches {
		if *paths[i] == "" {
			continue
		}
		if err := writeBench(*paths[i], b.run); err != nil {
			fmt.Fprintf(os.Stderr, "asetsbench: %s: %v\n", b.flag, err)
			os.Exit(1)
		}
		return
	}

	opts := experiments.Options{
		N:           *n,
		Parallelism: *parallel,
		Validate:    *validate,
		Seeds:       experiments.DefaultSeeds,
	}
	if *seeds < len(opts.Seeds) {
		opts.Seeds = opts.Seeds[:*seeds]
	} else if *seeds > len(opts.Seeds) {
		base := experiments.DefaultSeeds[0]
		for i := len(opts.Seeds); i < *seeds; i++ {
			opts.Seeds = append(opts.Seeds, base+uint64(i)*0x9e3779b97f4a7c15)
		}
	}

	ids := experiments.IDs()
	if *figure != "all" {
		if _, ok := experiments.Registry[*figure]; !ok {
			fmt.Fprintf(os.Stderr, "asetsbench: unknown experiment %q (use -list)\n", *figure)
			os.Exit(2)
		}
		ids = []string{*figure}
	}

	for _, dir := range []string{*csvDir, *svgDir, *jsonDir} {
		if dir == "" {
			continue
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "asetsbench: %v\n", err)
			os.Exit(1)
		}
	}

	failed := false
	for _, id := range ids {
		res, err := experiments.Registry[id](opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "asetsbench: %s: %v\n", id, err)
			failed = true
			continue
		}
		fmt.Println(res.Figure.Table())
		fmt.Printf("paper:    %s\n", res.PaperClaim)
		for _, obs := range res.Observations {
			fmt.Printf("measured: %s\n", obs)
		}
		if *chart {
			fmt.Println()
			fmt.Println(res.Figure.Chart(64, 14))
		}
		fmt.Println(strings.Repeat("=", 72))
		if *csvDir != "" {
			path := filepath.Join(*csvDir, id+".csv")
			if err := os.WriteFile(path, []byte(res.Figure.CSV()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "asetsbench: writing %s: %v\n", path, err)
				failed = true
			}
		}
		if *jsonDir != "" {
			path := filepath.Join(*jsonDir, id+".json")
			doc, err := json.MarshalIndent(struct {
				ID           string               `json:"id"`
				Title        string               `json:"title"`
				XLabel       string               `json:"x_label"`
				YLabel       string               `json:"y_label"`
				X            []float64            `json:"x"`
				Series       map[string][]float64 `json:"series"`
				PaperClaim   string               `json:"paper_claim"`
				Observations []string             `json:"observations"`
			}{
				ID:           res.Figure.ID,
				Title:        res.Figure.Title,
				XLabel:       res.Figure.XLabel,
				YLabel:       res.Figure.YLabel,
				X:            res.Figure.X,
				Series:       seriesMap(res.Figure),
				PaperClaim:   res.PaperClaim,
				Observations: res.Observations,
			}, "", "  ")
			if err == nil {
				err = os.WriteFile(path, doc, 0o644)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "asetsbench: writing %s: %v\n", path, err)
				failed = true
			}
		}
		if *svgDir != "" {
			path := filepath.Join(*svgDir, id+".svg")
			var buf strings.Builder
			if err := svgplot.Render(&buf, res.Figure, svgplot.Options{}); err != nil {
				fmt.Fprintf(os.Stderr, "asetsbench: rendering %s: %v\n", path, err)
				failed = true
			} else if err := os.WriteFile(path, []byte(buf.String()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "asetsbench: writing %s: %v\n", path, err)
				failed = true
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}

// seriesMap flattens a figure's series for JSON output.
func seriesMap(fig *report.Figure) map[string][]float64 {
	out := make(map[string][]float64, len(fig.Series))
	for _, s := range fig.Series {
		out[s.Name] = s.Y
	}
	return out
}

// writeBench runs one benchmark mode into the file at path.
func writeBench(path string, run func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = run(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
