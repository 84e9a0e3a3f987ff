package cluster

import (
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// paceProbe is a pace hook that records, at every pace(next) call, how many
// events the sink has received so far.
type paceProbe struct {
	col   *obs.Collector
	nexts []float64
	held  []int
}

func (p *paceProbe) pace(next float64) error {
	p.nexts = append(p.nexts, next)
	p.held = append(p.held, len(p.col.Events()))
	return nil
}

// check asserts that a paced run holds nothing back: at each pace(next)
// call every event of the final stream stamped before next had already
// reached the sink, so a live reader sees the run up to the pause.
func (p *paceProbe) check(t *testing.T) {
	t.Helper()
	if len(p.nexts) == 0 {
		t.Fatal("the run never paced")
	}
	events := p.col.Events()
	for k, next := range p.nexts {
		for i := p.held[k]; i < len(events); i++ {
			if events[i].Time < next {
				t.Fatalf("pace(%v) #%d: event %d (%s at %v) was still undelivered", next, k, i, events[i].Kind, events[i].Time)
			}
		}
	}
}

func TestPacedSingleBackendHoldsNothingBack(t *testing.T) {
	cfg := workload.Default(1.0, 0x5EED).WithWorkflows(4, 1).WithWeights()
	cfg.N = 400
	set := workload.MustGenerate(cfg)
	p := &paceProbe{col: &obs.Collector{}}
	e := sim.New(sim.Config{Servers: 2, Sink: p.col, Metrics: obs.NewRegistry(), Faults: pinFaultPlan()})
	if _, err := e.RunPaced(set, core.New(), p.pace, nil); err != nil {
		t.Fatal(err)
	}
	p.check(t)
}

func TestPacedFleetHoldsNothingBack(t *testing.T) {
	p := &paceProbe{col: &obs.Collector{}}
	cfg := clusterConfig(p.col)
	cfg.Metrics = obs.NewRegistry()
	cfg.Pace = p.pace
	if _, err := New(cfg).Run(clusterWorkload()); err != nil {
		t.Fatal(err)
	}
	p.check(t)
}
