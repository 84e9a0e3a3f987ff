package obs

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/txn"
)

// manySet returns n independent transactions with weights cycling through
// every SLA class.
func manySet(t *testing.T, n int) *txn.Set {
	t.Helper()
	ts := make([]*txn.Transaction, n)
	for i := range ts {
		ts[i] = &txn.Transaction{ID: txn.ID(i), Arrival: float64(i), Deadline: float64(i) + 5,
			Length: 2, Weight: float64(1 + i%10), Remaining: 2}
	}
	set, err := txn.NewSet(ts)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// emitWindowed completes every transaction of set in ID order, one time unit
// apart, with a mode switch every 50 completions, so a Window of 5 opens a
// new window row every few completions and cells in both modes.
func emitWindowed(b *SpanBuilder, set *txn.Set) {
	for i := 0; i < set.Len(); i++ {
		at := float64(i)
		if i%50 == 25 {
			b.Emit(Event{Time: at, Kind: KindModeSwitch, Txn: -1, Workflow: i, Detail: "edf->hdf"})
		}
		b.Emit(Event{Time: at, Kind: KindArrival, Txn: txn.ID(i), Workflow: -1, Deadline: at + 5})
		b.Emit(Event{Time: at, Kind: KindDispatch, Txn: txn.ID(i), Workflow: -1})
		b.Emit(Event{Time: at + 1 + float64(i%7)/3, Kind: KindCompletion, Txn: txn.ID(i), Workflow: -1,
			Tardiness: float64(i % 3)})
	}
}

// TestSpanRetainedBytesCountsSketches: the builder's retained-memory estimate
// covers its sketch store — the same run with sketches pins at least every
// cell's bucket capacity more than the run without.
func TestSpanRetainedBytesCountsSketches(t *testing.T) {
	set := manySet(t, 600)
	bare := NewSpanBuilder(set, SpanOptions{Keep: 16})
	emitWindowed(bare, set)
	b := NewSpanBuilder(set, SpanOptions{Metrics: NewRegistry(), Window: 5, Keep: 16})
	emitWindowed(b, set)
	b.Flush()
	buckets := 0
	b.store.mu.Lock()
	for _, c := range b.store.cells {
		for k := range c.sk {
			buckets += c.sk[k].RetainedBytes()
		}
	}
	cells := len(b.store.cells)
	b.store.mu.Unlock()
	if cells < 100 || buckets == 0 {
		t.Fatalf("run opened %d cells holding %d bucket bytes; want a run with windows", cells, buckets)
	}
	if got := b.RetainedBytes() - bare.RetainedBytes(); got < buckets {
		t.Fatalf("sketches add %d retained bytes, less than the cells' bucket capacity %d", got, buckets)
	}
}

// TestHammerSpanSketchScrape races a scraper against an emitter that keeps
// opening window cells, as the live server's /metrics handler does: every
// snapshot's sketch names must come out strictly sorted (hence unique), and
// every export must render.
func TestHammerSpanSketchScrape(t *testing.T) {
	set := manySet(t, 3000)
	reg := NewRegistry()
	b := NewSpanBuilder(set, SpanOptions{Metrics: reg, Window: 5, Keep: 64})
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		emitWindowed(b, set)
	}()
	var buf bytes.Buffer
	scrapes := 0
	for running := true; running; scrapes++ {
		select {
		case <-done:
			running = false
		default:
		}
		b.Flush()
		snap := reg.Snapshot()
		for i := 1; i < len(snap.Sketches); i++ {
			if prev, cur := snap.Sketches[i-1].Name, snap.Sketches[i].Name; prev >= cur {
				t.Fatalf("scrape %d: sketch names out of order or repeated: %q then %q", scrapes, prev, cur)
			}
		}
		buf.Reset()
		if err := WritePrometheus(&buf, reg); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	b.store.mu.Lock()
	want := 3 + 3*len(b.store.cells)
	b.store.mu.Unlock()
	if got := len(reg.Snapshot().Sketches); got != want || scrapes < 2 {
		t.Fatalf("final snapshot has %d sketches after %d scrapes, want %d", got, scrapes, want)
	}
}

// TestWindowCellsOutOfOrderAndNewMode drives the slot table off its
// newest-row fast path: a mode first seen after cells exist widens the
// table, and a completion in an earlier window than the newest row reaches
// (and then reuses) its own row.
func TestWindowCellsOutOfOrderAndNewMode(t *testing.T) {
	set := spanTestSet(t)
	reg := NewRegistry()
	b := NewSpanBuilder(set, SpanOptions{Metrics: reg, Window: 5})
	windowEvents(b, 0, 0, 12) // heavy, window 2, edf
	b.Emit(Event{Time: 12, Kind: KindModeSwitch, Txn: -1, Workflow: int(b.wfOf[3]), Detail: "edf->fifo"})
	windowEvents(b, 3, 3, 13) // light, window 2, fifo: a third mode
	windowEvents(b, 2, 2, 4)  // light, window 0: behind the newest row
	b.Emit(Event{Time: 1, Kind: KindArrival, Txn: 1, Workflow: -1, Deadline: 50})
	b.Emit(Event{Time: 1, Kind: KindDispatch, Txn: 1, Workflow: -1})
	b.Emit(Event{Time: 11, Kind: KindCompletion, Txn: 1, Workflow: -1}) // medium, window 2, edf
	got := map[string]int64{}
	for _, s := range reg.Snapshot().Sketches {
		if strings.HasPrefix(s.Name, "asets_window_response{") {
			got[s.Name] = s.Count
		}
	}
	want := map[string]int64{
		WindowMetric("response", 0, "light", "edf"):  1,
		WindowMetric("response", 2, "heavy", "edf"):  1,
		WindowMetric("response", 2, "light", "fifo"): 1,
		WindowMetric("response", 2, "medium", "edf"): 1,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("window cells %v, want %v", got, want)
	}
	if len(b.rowWin) != 2 || b.modeCap != 3 {
		t.Fatalf("slot table has rows %v and %d modes, want windows [0 2] and 3 modes", b.rowWin, b.modeCap)
	}
}
