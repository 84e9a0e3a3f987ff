package main

import (
	"fmt"
	"math"

	"repro/internal/txn"
)

// outcome is what an engine reported about one run, checked against the
// transaction set it ran.
type outcome struct {
	set *txn.Set
	// completions counts completion callbacks per transaction ID; nil when
	// the run has no completion hook to count.
	completions []int
	// completed, shed and lost are the engine's own counts; lost
	// transactions count as misses.
	completed, shed, lost int
	// missRatio is the engine's reported miss ratio and
	// avgWeightedTardiness its average weighted tardiness over completions.
	missRatio, avgWeightedTardiness float64
}

// failures counts transactions the run neither completed nor deliberately
// shed: those left unfinished and those lost.
func (o outcome) failures() int {
	n := o.lost
	for _, t := range o.set.Txns {
		if !t.Finished && !t.Shed {
			n++
		}
	}
	return n
}

// missTolerance absorbs the float rounding between the engine's running
// ratio and the recount here.
const missTolerance = 1e-12

// check verifies that every transaction finished exactly once or was
// counted shed or lost, and recomputes the miss ratio from the completions.
func (o outcome) check() error {
	finished, marked, misses := 0, 0, 0
	for _, t := range o.set.Txns {
		switch {
		case t.Finished && t.Shed:
			return fmt.Errorf("transaction %d is both finished and shed", t.ID)
		case t.Finished:
			finished++
			if t.FinishTime > t.Deadline {
				misses++
			}
		case t.Shed:
			marked++
		default:
			return fmt.Errorf("transaction %d neither finished nor was shed or lost", t.ID)
		}
		if o.completions != nil {
			want := 0
			if t.Finished {
				want = 1
			}
			if got := o.completions[t.ID]; got != want {
				return fmt.Errorf("transaction %d completed %d times, want %d", t.ID, got, want)
			}
		}
	}
	if finished != o.completed {
		return fmt.Errorf("engine reports %d completions, set holds %d finished transactions", o.completed, finished)
	}
	if marked != o.shed+o.lost {
		return fmt.Errorf("engine reports %d shed and %d lost, set marks %d", o.shed, o.lost, marked)
	}
	served := finished + o.lost
	want := 0.0
	if served > 0 {
		want = float64(misses+o.lost) / float64(served)
	}
	if math.Abs(want-o.missRatio) > missTolerance {
		return fmt.Errorf("engine miss ratio %v, recomputed from completions %v", o.missRatio, want)
	}
	return nil
}

// checkDigest fails when two runs that must schedule identically did not.
func checkDigest(what, got, want string) error {
	if got != want {
		return fmt.Errorf("%s schedule digest %s differs from %s", what, got, want)
	}
	return nil
}
