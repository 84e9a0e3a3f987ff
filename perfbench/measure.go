package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/txn"
)

// quantile returns the q-quantile of xs by the nearest-rank rule; xs need not
// be sorted and is not modified. An empty xs yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is the middle value of xs (the mean of the two middle values for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// cpuTime returns the CPU time the process has used so far, over all its
// threads. A shared host withdraws its CPUs from the benchmark at times
// (steal), which stretches wall time by a varying amount but leaves CPU time
// alone, so the sims' rates and every set-up time are per CPU second.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocMeter measures heap allocations between start and stop from the
// monotonic runtime.MemStats counters, so a GC in between does not disturb
// the count.
type allocMeter struct {
	mallocs, bytes uint64
}

func startAllocs() allocMeter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocMeter{ms.Mallocs, ms.TotalAlloc}
}

// stop returns the allocations and bytes allocated since start.
func (a allocMeter) stop() (mallocs, bytes float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs - a.mallocs), float64(ms.TotalAlloc - a.bytes)
}

// heapSampler polls the heap the last GC cycle found live, keeps the largest
// value of each lap (one run), and reports the median lap: the memory the
// program retains at its peak. The bytes in use between cycles would add
// garbage whose amount depends on where GC cycles fall, and a single peak
// depends on whether a cycle caught a transient buffer; the median over laps
// does not. runtime/metrics reads do not stop the world, so polling every
// few milliseconds barely perturbs the run.
type heapSampler struct {
	mu    sync.Mutex
	cur   uint64    // largest sample of the open lap; guarded by mu
	laps  []float64 // peaks of closed laps, MiB; guarded by mu
	stopc chan struct{}
	done  chan struct{}
}

const heapMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			h.mu.Lock()
			h.cur = max(h.cur, sample[0].Value.Uint64())
			h.mu.Unlock()
			select {
			case <-h.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// lap closes the open lap.
func (h *heapSampler) lap() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.laps = append(h.laps, float64(h.cur)/(1<<20))
	h.cur = 0
}

// stop ends sampling and returns the median lap peak in MiB.
func (h *heapSampler) stop() float64 {
	close(h.stopc)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return median(h.laps)
}

// retainedHeapMB collects garbage and returns the heap still live, in MiB.
func retainedHeapMB() float64 {
	runtime.GC()
	sample := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(sample)
	return float64(sample[0].Value.Uint64()) / (1 << 20)
}

// scheduleDigest is the sha256 over (id, finish) of every transaction in ID
// order; a shed or lost transaction contributes finish -1. Two runs with
// equal digests produced the same schedule.
func scheduleDigest(set *txn.Set) string {
	h := sha256.New()
	var b [16]byte
	for _, t := range set.Txns {
		finish := -1.0
		if t.Finished {
			finish = t.FinishTime
		}
		binary.LittleEndian.PutUint64(b[:8], uint64(t.ID))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(finish))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
