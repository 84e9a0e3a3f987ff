package main

import (
	"bytes"
	"errors"
	"time"

	"repro/internal/cluster"
	"repro/internal/contention"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/slo"
	"repro/internal/txn"
	"repro/internal/workload"
)

const (
	fleetN         = 100_000
	fleetInstances = 4
	// fleetCrashes crash windows of fleetCrashLen time units are spread
	// evenly over instance 0's share of the replay.
	fleetCrashes  = 8
	fleetCrashLen = 10.0
	// obsWindow is the live server's fixed span-sketch and SLO window.
	obsWindow = 100.0
	// obsRing is the live server's event-ring capacity.
	obsRing = 1024
)

// fleetSpec is the fleet's workload: Table I at U=0.9 per instance, on a
// Zipf-skewed keyspace of 16384 rows with 4 reads and 2 writes.
func fleetSpec(o options) workload.Spec {
	cfg := workload.Default(0.9*fleetInstances, o.seed)
	cfg.N = fleetN
	if o.short {
		cfg.N = 2000
	}
	return workload.Spec{Config: cfg, Contention: &contention.Keyspace{Keys: 16384, Alpha: 0.9, Reads: 4, Writes: 2}}
}

// fleetRetry is the failover budget: crash victims re-enqueue on a survivor
// almost at once, so none is lost.
func fleetRetry() cluster.Retry { return cluster.Retry{Budget: 3, BackoffBase: 0.25, BackoffCap: 2} }

// fleetPlans crashes instance 0 fleetCrashes times over the replay.
func fleetPlans(set *txn.Set) []*fault.Plan {
	var last float64
	for _, t := range set.Txns {
		last = max(last, t.Arrival)
	}
	p := &fault.Plan{}
	for k := 0; k < fleetCrashes; k++ {
		at := (float64(k) + 0.5) * last / fleetCrashes
		p.Stalls = append(p.Stalls, fault.Window{Start: at, Duration: fleetCrashLen, Kind: fault.Crash})
	}
	return []*fault.Plan{p, nil, nil, nil}
}

// runFleet routes the contended workload over four EDF instances, with
// instance 0 crashing and failover on. The
// observability chain is wired as the live server wires it: event ring, span
// builder with windowed sketches, registry and the default SLO spec. The obs
// fold and sketches, the router, contention validation and failover do the
// work; the ASETS* workflow code is bypassed.
func runFleet(o options, r *report) error {
	spec := fleetSpec(o)
	hash, err := configHash(struct {
		Spec      workload.Spec
		Instances int
		Crashes   int
		CrashLen  float64
		Retry     cluster.Retry
	}{spec, fleetInstances, fleetCrashes, fleetCrashLen, fleetRetry()})
	if err != nil {
		return err
	}
	r.configHash = hash
	set, buildS, err := repeatBuild(spec.Build)
	if err != nil {
		return err
	}
	plans := fleetPlans(set)
	sloCfg := &slo.Config{Spec: slo.DefaultSpec(), Window: obsWindow}

	var kinds kindCounts
	var last struct {
		reg *obs.Registry
		res *cluster.Result
	}
	run := func(traced bool) (outcome, error) {
		reg := obs.NewRegistry()
		ring := obs.NewRing(obsRing)
		spans := obs.NewSpanBuilder(set, obs.SpanOptions{Metrics: reg, Window: obsWindow, Keep: obsRing})
		sink := obs.Tee(ring, spans)
		var router cluster.Policy = cluster.HealthWeighted{}
		newSched := func() sched.Scheduler { return sched.NewEDF() }
		if traced {
			sink = obs.Tee(r.tr.sink("ring", ring, &kinds), r.tr.sink("span", spans, nil))
			router = r.tr.router(router)
			newSched = func() sched.Scheduler { return r.tr.policy(sched.NewEDF()) }
		}
		res, err := cluster.New(cluster.Config{
			Instances: fleetInstances, Policy: router, NewScheduler: newSched,
			Faults: plans, Retry: fleetRetry(), Sink: sink, Metrics: reg, SLO: sloCfg,
		}).Run(set)
		if err != nil {
			return outcome{set: set}, err
		}
		spans.Flush()
		last.reg, last.res = reg, res
		return outcome{set: set, completed: res.Summary.N, shed: res.Shed, lost: res.Lost,
			missRatio: res.EffectiveMissRatio(), avgWeightedTardiness: res.Summary.AvgWeightedTardiness}, nil
	}
	if !o.trace {
		r.set("setup_s", buildS)
		measureSim(o, r, run)
		return nil
	}
	r.set("workload.build_s", buildS)
	traced := traceSim(o, r, run)
	if last.res == nil {
		return errors.New("no traced fleet run completed")
	}
	runs := len(traced)
	txns := runs * set.Len()
	wall := totalWall(traced)
	r.setPolicyLayer(wall, txns)

	ring, spanOp := r.tr.op("obs", "ring", false), r.tr.op("obs", "span", false)
	r.set("obs.events_per_txn", float64(ring.items.Load())/float64(txns))
	r.set("obs.ring_ns_per_event", ring.nsPer(true))
	r.set("obs.span_ns_per_event", spanOp.nsPer(true))
	r.set("obs.share", float64(ring.ns.Load()+spanOp.ns.Load())/float64(wall))
	snap := last.reg.Snapshot()
	r.set("obs.registry_metrics", float64(len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms)+len(snap.Sketches)))
	var exports []float64
	var buf bytes.Buffer
	for i := 0; i < 3; i++ {
		buf.Reset()
		start := time.Now()
		if err := obs.WritePrometheus(&buf, last.reg); err != nil {
			return err
		}
		exports = append(exports, float64(time.Since(start))/1e6)
	}
	r.set("obs.prom_export_ms", median(exports))
	r.set("obs.prom_bytes", float64(buf.Len()))

	r.set("router.route_ns", r.tr.op("router", "pick", false).nsPer(false))
	r.set("router.failovers", float64(last.res.Failovers))
	r.set("router.lost", float64(last.res.Lost))
	fails := float64(last.res.Summary.ValidateFails)
	r.set("contention.validate_fail_ratio", fails/(fails+float64(last.res.Summary.N)))
	r.set("contention.defers_per_txn", float64(kinds[obs.KindConflictDefer])/float64(txns))
	r.set("slo.alert_events", float64(kinds[obs.KindAlertFire]+kinds[obs.KindAlertResolve])/float64(runs))
	r.idle("http.", "executor.", "loadgen.", "submit_", "scrape_", "completion_lag_")
	return nil
}
