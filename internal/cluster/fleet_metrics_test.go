package cluster

import (
	"testing"

	"repro/internal/contention"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sched"
)

// TestFleetMetricsCountPolicyEvents: on a fleet, as on a single backend,
// every asets_sched_* counter equals the number of events of its kind in
// the routed stream — policy-internal aging, mode-switch and conflict-defer
// events included.
func TestFleetMetricsCountPolicyEvents(t *testing.T) {
	col := &obs.Collector{}
	reg := obs.NewRegistry()
	newSched := func() sched.Scheduler { return contention.NewDeferring(core.New(core.WithCountActivation(0.05)), 0) }
	if _, err := New(keyedFleetConfig(newSched, col, reg)).Run(keyedFleetWorkload(t)); err != nil {
		t.Fatal(err)
	}
	kinds := map[obs.Kind]uint64{}
	for _, ev := range col.Events() {
		kinds[ev.Kind]++
	}
	counters := map[string]uint64{}
	registered := map[string]bool{}
	for _, c := range reg.Snapshot().Counters {
		counters[c.Name] = c.Value
		registered[c.Name] = true
	}
	for name, kind := range map[string]obs.Kind{
		obs.MetricArrivals:       obs.KindArrival,
		obs.MetricDispatches:     obs.KindDispatch,
		obs.MetricPreemptions:    obs.KindPreempt,
		obs.MetricCompletions:    obs.KindCompletion,
		obs.MetricMisses:         obs.KindDeadlineMiss,
		obs.MetricAging:          obs.KindAging,
		obs.MetricModeSwitch:     obs.KindModeSwitch,
		obs.MetricConflictDefers: obs.KindConflictDefer,
	} {
		if !registered[name] {
			t.Errorf("%s is not exported", name)
			continue
		}
		if counters[name] != kinds[kind] {
			t.Errorf("%s = %d, stream carries %d %s events", name, counters[name], kinds[kind], kind)
		}
		if kinds[kind] == 0 {
			t.Errorf("stream carries no %s event; the check is vacuous", kind)
		}
	}
}
