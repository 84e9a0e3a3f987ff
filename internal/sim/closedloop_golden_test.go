package sim

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/workload"
)

// closedLoopPatience sits inside the latency distribution of
// DefaultSessions(8, 0.9, 5), so the abandon rate is neither 0 nor 1.
const closedLoopPatience = 80

// closedLoopGolden pins, per policy, an FNV-64a digest of the float bits of
// every page latency (session-major) followed by every FinishTime (ID
// order), and the abandon rate's bits. Like goldenDigests it is a
// regression tripwire: the closed loop's schedule must not move when its
// event loop is refactored.
var closedLoopGolden = map[string]struct {
	digest  uint64
	abandon uint64
}{
	"EDF":    {0x50608f7ee8f5d73c, 0x3fd9e79e79e79e7a},
	"SRPT":   {0x2c93cc9b025654ad, 0x3fd3cf3cf3cf3cf4},
	"ASETS*": {0xe684c45782cd79e1, 0x3fd8618618618618},
}

func TestClosedLoopGolden(t *testing.T) {
	for _, policy := range []func() sched.Scheduler{
		func() sched.Scheduler { return sched.NewEDF() },
		func() sched.Scheduler { return sched.NewSRPT() },
		func() sched.Scheduler { return core.New() },
	} {
		set, sessions, err := workload.GenerateSessions(workload.DefaultSessions(8, 0.9, 5))
		if err != nil {
			t.Fatal(err)
		}
		p := policy()
		res, err := New(Config{Patience: closedLoopPatience}).RunClosedLoop(set, sessions, p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		h := fnv.New64a()
		var buf [8]byte
		put := func(v float64) {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
		for _, sess := range res.PageLatencies {
			for _, lat := range sess {
				put(lat)
			}
		}
		for _, tx := range set.Txns {
			put(tx.FinishTime)
		}
		got := closedLoopGolden[p.Name()]
		if h.Sum64() != got.digest || math.Float64bits(res.AbandonRate) != got.abandon {
			t.Errorf("%s: closed-loop digest %#x abandon %#x, golden %#x %#x — schedule moved",
				p.Name(), h.Sum64(), math.Float64bits(res.AbandonRate), got.digest, got.abandon)
		}
	}
}
