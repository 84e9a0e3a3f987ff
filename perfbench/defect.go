package main

import (
	"math"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/txn"
)

// farClockStall replays, on two transactions, a defect of sim.Sim.Run that
// keeps table1-workflow at 100k transactions instead of 1M (README.md,
// "Known failure"). Past 2^24 time units one ulp of the clock (3.7e-9)
// exceeds the simulator's completion epsilon (1e-9). Transaction 0 is
// preempted by the earlier deadline of transaction 1 with 1.5e-9 of work
// left, and when it resumes now+Remaining rounds back to now, so the event
// loop stops advancing until its step guard ends the run. It returns the
// simulator's error, or nil once the defect is fixed.
func farClockStall() error {
	t0 := math.Ldexp(1, 24)
	set, err := txn.NewSet([]*txn.Transaction{
		{ID: 0, Arrival: t0, Deadline: t0 + 100, Length: 1 + 1.5e-9, Weight: 1},
		{ID: 1, Arrival: t0 + 1, Deadline: t0 + 3, Length: 1, Weight: 1},
	})
	if err != nil {
		return err
	}
	_, err = sim.New(sim.Config{}).Run(set, sched.NewEDF())
	return err
}
