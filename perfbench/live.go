package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/executor"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/txn"
	"repro/internal/workload"
)

const (
	pathSubmit  = "/api/submit"
	pathStats   = "/api/stats"
	pathMetrics = "/metrics"

	// liveTxnPerSecond is the replay's transaction rate in wall time; the
	// replay lasts the measurement window.
	liveTxnPerSecond = 800
	// liveSubmitRate is POST /api/submit's open-loop rate per second, below
	// the server's knee; stats and scrapes run at 1/s, as the dashboard and
	// a Prometheus scraper do.
	liveSubmitRate = 200
	// liveMaxLate is how far behind its schedule the load generator may
	// fall before the run is invalid: past it, a stalled generator would
	// read as low server latency.
	liveMaxLate = 100 * time.Millisecond
	// liveRequestTimeout bounds one request; a timeout counts as failed.
	liveRequestTimeout = 10 * time.Second
)

// liveConfig is the asetsweb default workload: Table I at U=0.9 with
// workflows of up to 5 and weights.
func liveConfig(o options) workload.Config {
	cfg := workload.Default(0.9, o.seed).WithWorkflows(5, 1).WithWeights()
	cfg.N = int(liveTxnPerSecond * o.seconds)
	if o.short {
		cfg.N = 300
	}
	return cfg
}

// liveServer is one built server and the state its completion hook fills.
type liveServer struct {
	set   *txn.Set
	srv   *server.Server
	scale time.Duration
	// start is the replay's wall-clock origin; completions and lags are
	// written by the executor goroutine and read after the replay ends.
	start       time.Time
	completions []int
	lags        []float64
}

// buildLive generates the workload and builds the server with ASETS* and
// slack admission, at a time scale that spreads the replay over the window.
func buildLive(o options, cfg workload.Config, policy func() sched.Scheduler) (*liveServer, error) {
	set, err := workload.Generate(cfg)
	if err != nil {
		return nil, err
	}
	var last float64
	for _, t := range set.Txns {
		last = max(last, t.Arrival+t.Length)
	}
	ls := &liveServer{set: set, completions: make([]int, set.Len()), lags: make([]float64, 0, set.Len())}
	ls.scale = time.Duration(o.seconds * float64(time.Second) / last)
	ls.srv = server.New(policy(), set, &cfg, executor.Options{
		TimeScale: ls.scale,
		Admit:     admit.Feasibility{},
		OnComplete: func(t *txn.Transaction, finish float64) {
			due := ls.start.Add(time.Duration(finish * float64(ls.scale)))
			ls.lags = append(ls.lags, float64(time.Since(due))/1e6)
			ls.completions[t.ID]++
		},
	})
	return ls, nil
}

// request is one scheduled load-generator request.
type request struct {
	due  time.Duration // offset from the generator's start
	path string
	body []byte // POST body; nil for GET
}

// liveSchedule lays out the open-loop traffic for the window: submits at
// liveSubmitRate with bodies drawn from the seed, plus one stats call and
// one scrape per second.
func liveSchedule(o options) []request {
	rng := rand.New(rand.NewPCG(o.seed, 0x5eed))
	window := window(o)
	var reqs []request
	step := time.Second / liveSubmitRate
	for at := time.Duration(0); at < window; at += step {
		length := 1 + rng.Float64()*49
		body, _ := json.Marshal(map[string]float64{
			"length": length, "deadline": length * (1 + 3*rng.Float64()), "weight": float64(1 + rng.IntN(10)),
		})
		reqs = append(reqs, request{due: at, path: pathSubmit, body: body})
		if at%time.Second == 0 {
			reqs = append(reqs,
				request{due: at + 250*time.Millisecond, path: pathStats},
				request{due: at + 500*time.Millisecond, path: pathMetrics})
		}
	}
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].due < reqs[j].due })
	return reqs
}

// answer is one request's outcome: latency from its due instant, and an
// error when it failed.
type answer struct {
	path      string
	latencyMs float64
	err       error
}

// send performs one request and validates its answer.
func send(ctx context.Context, client *http.Client, base string, req request) error {
	method, body := http.MethodGet, io.Reader(nil)
	if req.body != nil {
		method, body = http.MethodPost, bytes.NewReader(req.body)
	}
	hr, err := http.NewRequestWithContext(ctx, method, base+req.path, body)
	if err != nil {
		return err
	}
	resp, err := client.Do(hr)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	return validate(req.path, resp.StatusCode, b)
}

// validate checks an answer's status and body.
func validate(path string, status int, body []byte) error {
	switch path {
	case pathSubmit:
		var d struct {
			Admitted *bool `json:"admitted"`
		}
		if status != http.StatusAccepted && status != http.StatusTooManyRequests {
			return fmt.Errorf("submit answered %d", status)
		}
		if err := json.Unmarshal(body, &d); err != nil || d.Admitted == nil {
			return fmt.Errorf("submit body %q unparseable", body)
		}
		if *d.Admitted != (status == http.StatusAccepted) {
			return fmt.Errorf("submit answered %d with admitted=%v", status, *d.Admitted)
		}
	case pathStats:
		var st struct {
			Completed *int `json:"completed"`
		}
		if status != http.StatusOK {
			return fmt.Errorf("stats answered %d", status)
		}
		if err := json.Unmarshal(body, &st); err != nil || st.Completed == nil {
			return fmt.Errorf("stats body unparseable")
		}
	case pathMetrics:
		if status != http.StatusOK {
			return fmt.Errorf("metrics answered %d", status)
		}
		if !bytes.Contains(body, []byte("# TYPE asets_")) {
			return fmt.Errorf("metrics body holds no asets_ family")
		}
	}
	return nil
}

// generate drives the schedule open loop: each request starts at its due
// instant in its own goroutine, over at most nproc connections, and is timed
// from that instant. It returns every answer and how late the generator ran.
func generate(ctx context.Context, base string, reqs []request) ([]answer, time.Duration) {
	conns := runtime.NumCPU()
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: liveRequestTimeout}
	answers := make([]answer, len(reqs))
	var wg sync.WaitGroup
	var maxLate time.Duration
	origin := time.Now()
	for i, req := range reqs {
		due := origin.Add(req.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		maxLate = max(maxLate, time.Since(due))
		wg.Add(1)
		go func(i int, req request, due time.Time) {
			defer wg.Done()
			err := send(ctx, client, base, req)
			answers[i] = answer{path: req.path, latencyMs: float64(time.Since(due)) / 1e6, err: err}
		}(i, req, due)
	}
	wg.Wait()
	return answers, maxLate
}

// replayResult is what one live replay measured.
type replayResult struct {
	wall           time.Duration
	mallocs, bytes float64
	peakHeapMB     float64
	answers        []answer
	maxLate        time.Duration
	stats          liveStats
	lags           []float64
	out            outcome
	digest         string
}

// liveStats is the part of GET /api/stats the checks read.
type liveStats struct {
	Completed int  `json:"completed"`
	Misses    int  `json:"misses"`
	Shed      int  `json:"shed"`
	Done      bool `json:"done"`
}

// fetchStats reads the server's own account of the replay.
func fetchStats(ctx context.Context, base string) (liveStats, error) {
	var st liveStats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+pathStats, nil)
	if err != nil {
		return st, err
	}
	req.Close = true // the server shuts down next; keep no idle connection
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("final stats answered %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("final stats: %w", err)
	}
	return st, nil
}

// replay serves ls on a loopback listener, runs the load generator over the
// window and waits for the replay to finish.
func replay(o options, ls *liveServer, handler http.Handler) (*replayResult, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: handler}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		<-served
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 2*window(o)+60*time.Second)
	defer cancel()
	runtime.GC()
	a := startAllocs()
	ls.start = time.Now()
	done, err := ls.srv.Start(ctx)
	if err != nil {
		return nil, err
	}
	base := "http://" + ln.Addr().String()
	answers, maxLate := generate(ctx, base, liveSchedule(o))
	<-done
	wall := time.Since(ls.start)
	m, b := a.stop()
	// The server's retained state only grows over a replay (the registry
	// gains a window every 100 time units; rings are bounded), so its peak
	// is what it holds at the end, once the scrapes' buffers are collected.
	res := &replayResult{wall: wall, mallocs: m, bytes: b, peakHeapMB: retainedHeapMB(),
		answers: answers, maxLate: maxLate, lags: ls.lags}
	if err := ls.srv.Err(); err != nil {
		return nil, fmt.Errorf("replay did not finish: %w", err)
	}
	if res.stats, err = fetchStats(ctx, base); err != nil {
		return nil, err
	}
	if !res.stats.Done {
		return nil, errors.New("replay ended but the server does not report it done")
	}
	sum, err := metrics.Compute(ls.set, 0)
	if err != nil {
		return nil, err
	}
	missRatio := 0.0
	if res.stats.Completed > 0 {
		missRatio = float64(res.stats.Misses) / float64(res.stats.Completed)
	}
	res.out = outcome{set: ls.set, completions: ls.completions, completed: res.stats.Completed, shed: res.stats.Shed,
		missRatio: missRatio, avgWeightedTardiness: sum.AvgWeightedTardiness}
	res.digest = scheduleDigest(ls.set)
	return res, nil
}

// simDigest replays the set through the discrete-event simulator with the
// live server's policy and admission: the executor must schedule exactly as
// the simulator does.
func simDigest(set *txn.Set) (string, error) {
	if _, err := sim.New(sim.Config{Admit: admit.Feasibility{}}).Run(set, core.New()); err != nil {
		return "", err
	}
	return scheduleDigest(set), nil
}

// runLive replays the asetsweb defaults behind the HTTP server under
// open-loop traffic. It is the only workload that exercises the executor's
// locking, the HTTP handlers and registry export.
func runLive(o options, r *report) error {
	cfg := liveConfig(o)
	hash, err := configHash(struct {
		Workload   workload.Config
		SubmitRate int
		Admit      string
	}{cfg, liveSubmitRate, "slack"})
	if err != nil {
		return err
	}
	r.configHash = hash
	ls, buildS, err := repeatBuild(func() (*liveServer, error) {
		return buildLive(o, cfg, func() sched.Scheduler { return core.New() })
	})
	if err != nil {
		return err
	}
	plain, err := replay(o, ls, ls.srv)
	if err != nil {
		return err
	}
	r.checkReplay(plain)
	ref, err := simDigest(ls.set)
	if err != nil {
		return err
	}
	r.check(checkDigest("live", plain.digest, ref))
	r.digest = plain.digest
	// Client-side figures always come from the untraced replay.
	r.setReplay(plain)
	if !o.trace {
		r.set("setup_s", buildS)
		n := float64(ls.set.Len())
		r.set("txn_per_s", n/plain.wall.Seconds())
		r.set("allocs_per_txn", plain.mallocs/n)
		r.set("bytes_per_txn", plain.bytes/n)
		r.set("peak_heap_mb", plain.peakHeapMB)
		return nil
	}

	// One traced server: set-up is timed on the untraced builds, and
	// repeating the traced one would add its policy Init calls to the
	// replay's policy time.
	tls, err := buildLive(o, cfg, func() sched.Scheduler { return r.tr.policy(core.New()) })
	if err != nil {
		return err
	}
	ht := r.tr.http(tls.srv)
	traced, err := replay(o, tls, ht)
	if err != nil {
		return err
	}
	r.checkReplay(traced)
	r.check(checkDigest("traced live", traced.digest, plain.digest))
	r.set("workload.build_s", buildS)
	r.set("trace.txn_per_s_ratio", plain.wall.Seconds()/traced.wall.Seconds())
	r.setPolicyLayer(traced.wall, tls.set.Len())
	// The executor paces to wall time, so run time minus policy time is
	// mostly sleep, not engine work.
	r.set("engine.self_ns_per_txn", 0)
	for _, route := range []struct{ name, path string }{
		{"submit", pathSubmit}, {"stats", pathStats}, {"metrics", pathMetrics},
	} {
		op := ht.routes[route.path]
		r.set("http."+route.name+"_handler_p50_ms", op.quantileMs(0.5))
		r.set("http."+route.name+"_handler_p99_ms", op.quantileMs(0.99))
	}
	ht.mu.Lock()
	r.set("http.metrics_bytes", float64(ht.maxBytes))
	if ht.submits > 0 {
		r.set("http.submit_admitted_share", float64(ht.admitted)/float64(ht.submits))
	} else {
		r.set("http.submit_admitted_share", 0)
	}
	ht.mu.Unlock()
	r.idle("obs.", "router.", "contention.", "slo.")
	return nil
}

// checkReplay checks one replay and counts its requests as attempted and
// failed.
func (r *report) checkReplay(res *replayResult) {
	r.check(res.out.check())
	if res.maxLate > liveMaxLate {
		r.check(fmt.Errorf("load generator fell %v behind its schedule (limit %v): run invalid", res.maxLate, liveMaxLate))
	}
	var failed []error
	for _, a := range res.answers {
		r.attempted++
		if a.err != nil {
			r.failed++
			failed = append(failed, fmt.Errorf("%s: %w", a.path, a.err))
		}
	}
	if len(failed) > 0 {
		r.check(fmt.Errorf("%d of %d requests failed, first: %w", len(failed), len(res.answers), failed[0]))
	}
}

// setReplay records a replay's client-side figures.
func (r *report) setReplay(res *replayResult) {
	var submit, scrape []float64
	for _, a := range res.answers {
		switch a.path {
		case pathSubmit:
			submit = append(submit, a.latencyMs)
		case pathMetrics:
			scrape = append(scrape, a.latencyMs)
		}
	}
	r.set("submit_p50_ms", quantile(submit, 0.5))
	r.set("submit_p99_ms", quantile(submit, 0.99))
	r.set("scrape_p50_ms", quantile(scrape, 0.5))
	r.set("completion_lag_p99_ms", quantile(res.lags, 0.99))
	r.set("loadgen.max_late_ms", float64(res.maxLate)/1e6)
	r.set("loadgen.sent", float64(len(res.answers)))
	r.set("executor.completions", float64(res.stats.Completed))
	r.set("executor.shed", float64(res.stats.Shed))
	r.setOutcome(res.out)
}
