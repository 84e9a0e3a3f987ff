package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/executor"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/txn"
	"repro/internal/workload"
)

// testPlan exercises every fault mechanism: keyed aborts with backoff, a
// stall window, a crash window, and a flash crowd.
func testPlan() *fault.Plan {
	return &fault.Plan{
		Seed: 11, AbortProb: 0.3, MaxRestarts: 2,
		BackoffBase: 0.5, BackoffCap: 4,
		Stalls: []fault.Window{
			{Start: 5, Duration: 2},
			{Start: 20, Duration: 1, Kind: fault.Crash},
		},
		Bursts: []fault.Burst{{At: 10, Width: 5}},
	}
}

func postJSON(t *testing.T, url string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestSubmitGate pins the POST /api/submit contract against a feasibility
// controller on an idle executor (now=0, backlog=0): a transaction that fits
// its deadline answers 202, one that cannot answers 429 with a Retry-After
// hint, and malformed requests are client errors.
func TestSubmitGate(t *testing.T) {
	cfg := workload.Default(0.5, 3)
	cfg.N = 10
	set := workload.MustGenerate(cfg)
	s := New(core.New(), set, &cfg, executor.Options{
		TimeScale: time.Millisecond,
		Admit:     admit.Feasibility{},
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/api/submit", `{"length": 1, "deadline": 5}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("feasible submit: status %d", resp.StatusCode)
	}
	var d submitDecision
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	if !d.Admitted || d.Controller != "slack" {
		t.Fatalf("decision = %+v", d)
	}

	resp = postJSON(t, ts.URL+"/api/submit", `{"length": 2, "deadline": 1}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("infeasible submit: status %d", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("Retry-After %q not a positive integer of seconds", ra)
	}
	d = submitDecision{}
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	if d.Admitted || d.RetryAfterSeconds < 1 {
		t.Fatalf("shed decision = %+v", d)
	}

	for body, want := range map[string]int{
		`{"length": 0, "deadline": 1}`:                 http.StatusBadRequest,
		`{"length": 1, "deadline": -2}`:                http.StatusBadRequest,
		`{"length": 1, "deadline": 1, "weight": -1}`:   http.StatusBadRequest,
		`{"length": 1, "deadline": 1, "surprise": 42}`: http.StatusBadRequest,
		`not json`: http.StatusBadRequest,
	} {
		if resp := postJSON(t, ts.URL+"/api/submit", body); resp.StatusCode != want {
			t.Errorf("submit %q: status %d, want %d", body, resp.StatusCode, want)
		}
	}

	// Body-size limit: a megabyte of padding must be rejected, not read.
	huge := `{"length": 1, "deadline": 1, "pad": "` + strings.Repeat("x", 1<<20) + `"}`
	resp, err := http.Post(ts.URL+"/api/submit", "application/json", bytes.NewReader([]byte(huge)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submit: status %d, want 413", resp.StatusCode)
	}
}

// TestSubmitWithoutController: with no admission controller configured the
// gate admits everything (the paper's original open door).
func TestSubmitWithoutController(t *testing.T) {
	_, ts := testServer(t)
	resp := postJSON(t, ts.URL+"/api/submit", `{"length": 1e6, "deadline": 0}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, want 202", resp.StatusCode)
	}
}

// TestHealthzDegraded: /healthz flips to 503 "degraded" while the admission
// controller is in degradation mode.
func TestHealthzDegraded(t *testing.T) {
	ctrl := admit.NewMissRatio(0.5, 0.25)
	ctrl.Window = 4
	for i := 0; i < 4; i++ { // drive it degraded before the replay starts
		ctrl.Complete(&txn.Transaction{Weight: 1}, true)
	}
	cfg := workload.Default(0.5, 3)
	cfg.N = 10
	set := workload.MustGenerate(cfg)
	s := New(core.New(), set, &cfg, executor.Options{
		TimeScale: time.Millisecond,
		Admit:     ctrl,
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded healthz: status %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(string(body), "degraded") {
		t.Fatalf("degraded healthz body %q", body)
	}
}

// TestFaultReplayThroughServer replays an overloaded workload with the full
// fault plan and a queue-cap shedder under a FakeClock, then checks the
// bookkeeping closes: every transaction either completed or was shed, the
// fault counters surface on /api/stats and /metrics, and shed counts match.
func TestFaultReplayThroughServer(t *testing.T) {
	cfg := workload.Default(1.4, 7).WithWeights()
	cfg.N = 120
	set := workload.MustGenerate(cfg)
	s := New(core.New(), set, &cfg, executor.Options{
		TimeScale: time.Millisecond,
		Clock:     executor.NewFakeClock(time.Unix(0, 0)),
		Faults:    testPlan(),
		Admit:     admit.QueueCap{Max: 10},
	})
	ts := httptest.NewServer(s)
	defer ts.Close()
	runToCompletion(t, s)

	var st statsPayload
	getJSON(t, ts.URL+"/api/stats", &st)
	if st.Completed+st.Shed != st.N {
		t.Fatalf("accounting broken: completed %d + shed %d != n %d", st.Completed, st.Shed, st.N)
	}
	if st.Submitted != st.Completed {
		t.Fatalf("submitted %d != completed %d after full replay", st.Submitted, st.Completed)
	}
	if st.Shed == 0 {
		t.Fatal("queue cap 10 at util 1.4 shed nothing")
	}
	if st.Aborts == 0 || st.Restarts == 0 || st.Stalls == 0 {
		t.Fatalf("fault plan injected nothing: %+v", st)
	}
	if st.Admit != "queue:10" {
		t.Fatalf("admit name %q", st.Admit)
	}

	body, _ := getBody(t, ts.URL+"/metrics")
	samples := promSamples(t, body)
	for metric, want := range map[string]int{
		obs.MetricShed:     st.Shed,
		obs.MetricAborts:   st.Aborts,
		obs.MetricRestarts: st.Restarts,
		obs.MetricStalls:   st.Stalls,
	} {
		if got := samples[metric]; got != strconv.Itoa(want) {
			t.Errorf("%s = %q, want %d", metric, got, want)
		}
	}
}

// TestFaultHammer is the -race target for the fault/admission path: many
// goroutines hammer every endpoint — including the POST /api/submit gate,
// which shares the admission controller with the replay goroutine — while a
// faulty, shedding replay runs.
func TestFaultHammer(t *testing.T) {
	cfg := workload.Default(1.2, 9).WithWeights()
	cfg.N = 150
	set := workload.MustGenerate(cfg)
	s := New(core.New(), set, &cfg, executor.Options{
		TimeScale: 20 * time.Microsecond,
		Faults:    testPlan(),
		Admit:     admit.Feasibility{Tolerance: 1},
	})
	ts := httptest.NewServer(s)
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done := mustStart(t, s, ctx)

	gets := []string{"/", "/api/stats", "/api/recent?limit=5", "/healthz", "/metrics", "/events?limit=10"}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					t.Errorf("GET %s: %v", path, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				// /healthz may legitimately answer 503 while degraded.
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
					t.Errorf("GET %s: status %d", path, resp.StatusCode)
					return
				}
			}
		}(gets[i%len(gets)])
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/api/submit", "application/json",
					strings.NewReader(`{"length": 1, "deadline": 3}`))
				if err != nil {
					t.Errorf("POST /api/submit: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusTooManyRequests {
					t.Errorf("POST /api/submit: status %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := s.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	st := s.statsNow()
	if !st.Done || st.Completed+st.Shed != st.N {
		t.Fatalf("post-hammer stats inconsistent: %+v", st)
	}
}
