package main

import (
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/txn"
	"repro/internal/workload"
)

// table1N is the ROADMAP's 100k-transaction Table-I scale. Its 1M scale
// takes simulated time past 2^24, where sim.Sim.Run stalls on about a third
// of seeds (farClockStall); 100k transactions end near 2^21.
const table1N = 100_000

// table1Config is Table I at U=0.9 with workflows and weights.
func table1Config(o options) workload.Config {
	cfg := workload.Default(0.9, o.seed).WithWorkflows(4, 1).WithWeights()
	cfg.N = table1N
	if o.short {
		cfg.N = 2000
	}
	return cfg
}

// runTable1 runs ASETS* on one server with no observability sink, so the
// policy layer (core, txn workflows, sched.ReadyTracker, pq) does most of
// the work and the obs, router and contention layers are bypassed.
func runTable1(o options, r *report) error {
	cfg := table1Config(o)
	hash, err := configHash(cfg)
	if err != nil {
		return err
	}
	r.configHash = hash
	set, buildS, err := repeatBuild(func() (*txn.Set, error) { return workload.Generate(cfg) })
	if err != nil {
		return err
	}
	run := func(traced bool) (outcome, error) {
		var policy sched.Scheduler = core.New()
		if traced {
			policy = r.tr.policy(policy)
		}
		sum, err := sim.New(sim.Config{}).Run(set, policy)
		if err != nil {
			return outcome{set: set}, err
		}
		return outcome{set: set, completed: sum.N, shed: sum.Shed,
			missRatio: sum.MissRatio, avgWeightedTardiness: sum.AvgWeightedTardiness}, nil
	}
	if !o.trace {
		r.set("setup_s", buildS)
		measureSim(o, r, run)
		return nil
	}
	r.set("workload.build_s", buildS)
	traced := traceSim(o, r, run)
	r.setPolicyLayer(totalWall(traced), len(traced)*set.Len())
	r.idle("obs.", "router.", "contention.", "slo.", "http.", "executor.", "loadgen.",
		"submit_", "scrape_", "completion_lag_")
	return nil
}
