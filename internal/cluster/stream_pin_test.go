package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/admit"
	"repro/internal/contention"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/slo"
	"repro/internal/txn"
	"repro/internal/workload"
)

// The stream pins hold the exact bytes of every decision-event stream the
// repository builds — both event loops, every emitting layer — so a change
// to how events are recorded cannot move a byte unnoticed. Each pin is the
// sha256 of the JSONL stream; the single-backend fault/admission/SLO run
// also pins its /metrics text. The fleet's /metrics is not pinned here:
// TestFleetMetricsCountPolicyEvents holds its policy-internal counters to
// the stream instead.

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func checkPin(t *testing.T, what string, b []byte, want string) {
	t.Helper()
	if got := digest(b); got != want {
		t.Errorf("%s digest %s, want %s (%d bytes)", what, got, want, len(b))
	}
}

// requireKinds fails unless the stream carries every listed kind, so a pin
// cannot silently stop covering an emitter.
func requireKinds(t *testing.T, events []obs.Event, kinds ...obs.Kind) {
	t.Helper()
	seen := map[obs.Kind]bool{}
	for _, ev := range events {
		seen[ev.Kind] = true
	}
	for _, k := range kinds {
		if !seen[k] {
			t.Errorf("stream has no %s event", k)
		}
	}
}

// pinFaultPlan has keyed aborts, one stall window and one crash window.
func pinFaultPlan() *fault.Plan {
	return &fault.Plan{
		Seed: 0x51AB, AbortProb: 0.1, MaxRestarts: 3, BackoffBase: 0.5, BackoffCap: 4,
		Stalls: []fault.Window{
			{Start: 60, Duration: 6, Kind: fault.Stall},
			{Start: 150, Duration: 5, Kind: fault.Crash},
		},
	}
}

// TestStreamPinSingleBackendFaults pins (a): ASETS* with count-based aging
// on a weighted workflow workload, under a fault plan, a miss-ratio
// admission controller and SLO alerting, on one and on three servers.
func TestStreamPinSingleBackendFaults(t *testing.T) {
	want := map[int]struct{ stream, metrics string }{
		1: {"3ba1e0b73c6434ac67273b742b593ae438bea28cfdf1b44611d4f200e2fda74a", "c2830ac66d63d360177b32e86c045bd7020f0b75afe3091d0891e02b176d6c60"},
		3: {"1994d84c9844f7b3db1257ae2d1b726359b7e86d45d7676132e9c8711eab032f", "53e79c66d29351a7b6eea6cf19d2ac1c7b2319cef65642871079d2abf16dc91b"},
	}
	for _, servers := range []int{1, 3} {
		cfg := workload.Default(float64(servers), 0x5EED).WithWorkflows(4, 1).WithWeights()
		cfg.N = 500
		set := workload.MustGenerate(cfg)
		col := &obs.Collector{}
		reg := obs.NewRegistry()
		_, err := sim.New(sim.Config{
			Servers: servers, Sink: col, Metrics: reg,
			Faults: pinFaultPlan(), Admit: admit.NewMissRatio(0.25, 0.2),
			SLO: &slo.Config{Spec: slo.DefaultSpec(), Window: 50},
		}).Run(set, core.New(core.WithCountActivation(0.05)))
		if err != nil {
			t.Fatal(err)
		}
		requireKinds(t, col.Events(), obs.KindArrival, obs.KindDispatch, obs.KindPreempt,
			obs.KindCompletion, obs.KindDeadlineMiss, obs.KindAging, obs.KindModeSwitch,
			obs.KindAbort, obs.KindRestart, obs.KindStall, obs.KindShed,
			obs.KindDegradeEnter, obs.KindDegradeExit, obs.KindAlertFire, obs.KindAlertResolve)
		var prom bytes.Buffer
		if err := obs.WritePrometheus(&prom, reg); err != nil {
			t.Fatal(err)
		}
		checkPin(t, "stream", streamBytes(t, col.Events()), want[servers].stream)
		checkPin(t, "/metrics", prom.Bytes(), want[servers].metrics)
	}
}

// pinKeyedSpec is a hot contended workload for the given load.
func pinKeyedSpec(util float64, n, keys int, seed uint64) workload.Spec {
	return workload.NewSpec(util, seed).WithN(n).
		WithContention(contention.Keyspace{Keys: keys, Alpha: 0.9, Reads: 4, Writes: 2})
}

func asetsCA() sched.Scheduler { return contention.NewDeferring(core.New(), 0) }

// TestStreamPinContention pins (b): conflict-aware ASETS* on four servers
// over a keyed workload, so validation failures and conflict deferrals
// interleave with the decision loop.
func TestStreamPinContention(t *testing.T) {
	set, err := pinKeyedSpec(3.4, 150, 256, 42).Build()
	if err != nil {
		t.Fatal(err)
	}
	col := &obs.Collector{}
	if _, err := sim.New(sim.Config{Servers: 4, Sink: col}).Run(set, asetsCA()); err != nil {
		t.Fatal(err)
	}
	requireKinds(t, col.Events(), obs.KindValidateFail, obs.KindConflictDefer)
	checkPin(t, "stream", streamBytes(t, col.Events()), "c5e549aec18bb869d4eb33574be04b8bd7cd606b3b5f6ead601d03e662a2dc90")
}

// TestStreamPinClosedLoop pins (c): the closed loop under ASETS*.
func TestStreamPinClosedLoop(t *testing.T) {
	set, sessions, err := workload.GenerateSessions(workload.DefaultSessions(8, 0.9, 5))
	if err != nil {
		t.Fatal(err)
	}
	col := &obs.Collector{}
	if _, err := sim.New(sim.Config{Sink: col}).RunClosedLoop(set, sessions, core.New()); err != nil {
		t.Fatal(err)
	}
	checkPin(t, "stream", streamBytes(t, col.Events()), "25c3cd54d94055911d759d531f7179ab5e827eed8fdd0032b2463c6456508357")
}

// TestStreamPinFleetFixture pins (d): the clusterConfig fixture.
func TestStreamPinFleetFixture(t *testing.T) {
	col := &obs.Collector{}
	if _, err := New(clusterConfig(col)).Run(clusterWorkload()); err != nil {
		t.Fatal(err)
	}
	requireKinds(t, col.Events(), obs.KindRoute, obs.KindFailover, obs.KindEject,
		obs.KindRecover, obs.KindAbort, obs.KindRestart, obs.KindStall)
	checkPin(t, "stream", streamBytes(t, col.Events()), "3c51b7e363ca54b4d4fbbb11c4ed9e5b4d8f15a3cc0ab84f6ddd4717283d35c5")
}

// keyedFleetConfig is a three-instance keyed fleet with SLO alerting,
// queue-cap admission and one crash window.
func keyedFleetConfig(newSched func() sched.Scheduler, sink obs.Sink, reg *obs.Registry) Config {
	return Config{
		Instances:    3,
		Policy:       HealthWeighted{},
		NewScheduler: newSched,
		NewAdmit:     func() admit.Controller { return admit.QueueCap{Max: 5} },
		Faults: []*fault.Plan{
			nil,
			{Stalls: []fault.Window{{Start: 50, Duration: 6, Kind: fault.Crash}}},
			nil,
		},
		RecoveryCooldown: 2,
		SLO:              &slo.Config{Spec: slo.DefaultSpec(), Window: 40},
		Sink:             sink,
		Metrics:          reg,
	}
}

func keyedFleetWorkload(t *testing.T) *txn.Set {
	t.Helper()
	set, err := pinKeyedSpec(3.3, 400, 16, 0xF1EE7).Build()
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestStreamPinKeyedFleet pins (e): the keyed fleet under conflict-aware
// ASETS*, whose deferrals keep every single-server instance clear of
// validation failures, and under plain ASETS*, which fails validation.
func TestStreamPinKeyedFleet(t *testing.T) {
	for _, tc := range []struct {
		name     string
		newSched func() sched.Scheduler
		kind     obs.Kind
		want     string
	}{
		{"asets-ca", asetsCA, obs.KindConflictDefer, "ea5bab35b2c8ba3d26013ce60bb46fddd03311f07446895f13bec258ddfe1bc8"},
		{"asets", func() sched.Scheduler { return core.New() }, obs.KindValidateFail, "d2a752eb8e2b57f9f908468a09cb9793e080793e614e4d6257c3f29fa23cc07c"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			col := &obs.Collector{}
			if _, err := New(keyedFleetConfig(tc.newSched, col, obs.NewRegistry())).Run(keyedFleetWorkload(t)); err != nil {
				t.Fatal(err)
			}
			requireKinds(t, col.Events(), obs.KindRoute, obs.KindShed, obs.KindFailover,
				obs.KindEject, obs.KindRecover, obs.KindModeSwitch, obs.KindAlertFire, tc.kind)
			checkPin(t, "stream", streamBytes(t, col.Events()), tc.want)
		})
	}
}
