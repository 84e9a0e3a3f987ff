// Package obs is the unified instrumentation layer of the repository: a
// stdlib-only observability stack threaded through the simulator, the
// scheduling policies, the online executor and the web server.
//
// It has three parts:
//
//   - a metrics registry (registry.go): named counters, gauges and
//     histogram handles with atomic hot-path updates and a deterministic
//     snapshot API, exportable in Prometheus text format (prom.go);
//   - a structured decision-event stream (this file): schedulers and the
//     sim/executor emit typed Events through a Sink — a no-op Discard sink
//     for zero-overhead disabled runs, a bounded in-memory Ring for live
//     endpoints, a Collector for post-run analysis, and a JSONLWriter for
//     `asetssim -events out.jsonl`;
//   - export surfaces: Prometheus text (prom.go) and a Chrome trace-event
//     timeline loadable in Perfetto (timeline.go).
//
// Determinism: events are stamped exclusively from simulated/virtual time
// (the `now` of the scheduling decision), never from the host clock, so a
// fixed-seed run produces a byte-identical event stream on every replay.
// The package is inside the asetslint determinism scope, which enforces
// this statically.
package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"

	"repro/internal/txn"
)

// Kind classifies one scheduling decision event.
type Kind int

const (
	// KindArrival — a transaction was submitted to the scheduler.
	KindArrival Kind = iota
	// KindDispatch — the scheduler checked a transaction out to a server.
	KindDispatch
	// KindPreempt — a running transaction was set aside unfinished.
	KindPreempt
	// KindCompletion — a transaction finished.
	KindCompletion
	// KindDeadlineMiss — a transaction finished past its deadline
	// (emitted in addition to KindCompletion).
	KindDeadlineMiss
	// KindAging — balance-aware ASETS* activated T_old out of priority
	// order (Section III-D aging).
	KindAging
	// KindModeSwitch — an ASETS* scheduling entity migrated between the
	// EDF-List and the HDF-List (its representative expired).
	KindModeSwitch
	// KindAbort — a transaction's completion attempt aborted (fault
	// injection) or its in-flight work was lost to a backend crash; Detail
	// distinguishes "abort" from "crash".
	KindAbort
	// KindRestart — an aborted transaction re-entered the scheduler after
	// its backoff expired.
	KindRestart
	// KindStall — the backend entered a stall/crash outage window; Detail
	// carries the window kind, Remaining its duration.
	KindStall
	// KindShed — the admission controller rejected an arriving transaction;
	// Detail names the controller.
	KindShed
	// KindDegradeEnter — the admission controller crossed into degradation
	// mode.
	KindDegradeEnter
	// KindDegradeExit — the admission controller left degradation mode.
	KindDegradeExit
	// KindRoute — the cluster routing tier assigned an arriving transaction
	// to an instance; Detail carries the instance index.
	KindRoute
	// KindFailover — a transaction lost to an instance crash was re-enqueued
	// to a surviving instance (Detail "from->to") or permanently dropped
	// because its retry budget ran out (Detail "lost").
	KindFailover
	// KindEject — the cluster circuit-breaker ejected a crashed instance
	// from the routing set; Detail carries the instance index.
	KindEject
	// KindRecover — an ejected instance's circuit-breaker half-opened after
	// its outage window ended; Detail carries the instance index.
	KindRecover
	// KindValidateFail — a transaction failed commit-time read-set
	// validation and was rewound for re-execution with a new incarnation
	// (docs/CONTENTION.md); Remaining carries the rewound full length.
	KindValidateFail
	// KindConflictDefer — a conflict-aware policy skipped a queued
	// transaction predicted to conflict with busy work and stole a later
	// non-conflicting one; Txn is the deferred transaction.
	KindConflictDefer
	// KindAlertFire — an SLO burn-rate alert rule started firing at a
	// window boundary; Detail names the rule ("class/rule"), Deadline
	// carries the fast-window burn ratio at fire time (internal/slo).
	KindAlertFire
	// KindAlertResolve — a firing SLO alert rule cleared after its
	// hysteresis window; Detail names the rule, Deadline the fast-window
	// burn ratio at resolve time.
	KindAlertResolve
)

// String returns the stable wire name of the kind, used in JSONL output,
// the /events endpoint and timeline exports.
func (k Kind) String() string {
	switch k {
	case KindArrival:
		return "arrival"
	case KindDispatch:
		return "dispatch"
	case KindPreempt:
		return "preempt"
	case KindCompletion:
		return "completion"
	case KindDeadlineMiss:
		return "deadline_miss"
	case KindAging:
		return "aging"
	case KindModeSwitch:
		return "mode_switch"
	case KindAbort:
		return "abort"
	case KindRestart:
		return "restart"
	case KindStall:
		return "stall"
	case KindShed:
		return "shed"
	case KindDegradeEnter:
		return "degrade_enter"
	case KindDegradeExit:
		return "degrade_exit"
	case KindRoute:
		return "route"
	case KindFailover:
		return "failover"
	case KindEject:
		return "eject"
	case KindRecover:
		return "recover"
	case KindValidateFail:
		return "validate_fail"
	case KindConflictDefer:
		return "conflict_defer"
	case KindAlertFire:
		return "alert_fire"
	case KindAlertResolve:
		return "alert_resolve"
	default:
		panic(fmt.Sprintf("obs: unknown event kind %d", int(k)))
	}
}

// Event is one scheduling decision, stamped with simulated time. The zero
// value of optional fields means "not applicable": Txn and Workflow use -1
// for that instead, because 0 is a valid ID.
type Event struct {
	// Seq is a per-sink monotone sequence number, stamped by the sink
	// (Ring, Collector, JSONLWriter) on receipt. Emitters leave it zero.
	Seq uint64
	// Time is the simulated/virtual time of the decision.
	Time float64
	// Kind classifies the decision.
	Kind Kind
	// Txn is the subject transaction, or -1 when the event concerns a
	// workflow or the scheduler as a whole.
	Txn txn.ID
	// Workflow is the subject scheduling entity, or -1.
	Workflow int
	// Deadline, Remaining and Tardiness carry the kind-specific numeric
	// payload (see docs/OBSERVABILITY.md for which kinds set which).
	Deadline  float64
	Remaining float64
	Tardiness float64
	// Detail is a short free-form qualifier, e.g. "edf->hdf".
	Detail string
}

// MarshalJSON renders the event as a single flat JSON object with a fixed
// field order, so serialized streams are byte-stable across runs.
func (e Event) MarshalJSON() ([]byte, error) {
	//lint:ignore hotpath-alloc JSONL encoding allocates by design; the hot path reaches it only through JSONLWriter, an offline-capture sink, not benchmark runs
	b := make([]byte, 0, 128)
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, e.Seq, 10)
	b = append(b, `,"t":`...)
	b = strconv.AppendFloat(b, e.Time, 'g', -1, 64)
	b = append(b, `,"kind":"`...)
	b = append(b, e.Kind.String()...)
	b = append(b, `","txn":`...)
	b = strconv.AppendInt(b, int64(e.Txn), 10)
	if e.Workflow >= 0 {
		b = append(b, `,"wf":`...)
		b = strconv.AppendInt(b, int64(e.Workflow), 10)
	}
	if e.Deadline != 0 {
		b = append(b, `,"deadline":`...)
		b = strconv.AppendFloat(b, e.Deadline, 'g', -1, 64)
	}
	if e.Remaining != 0 {
		b = append(b, `,"remaining":`...)
		b = strconv.AppendFloat(b, e.Remaining, 'g', -1, 64)
	}
	if e.Tardiness != 0 {
		b = append(b, `,"tardiness":`...)
		b = strconv.AppendFloat(b, e.Tardiness, 'g', -1, 64)
	}
	if e.Detail != "" {
		b = append(b, `,"detail":`...)
		b = appendJSONString(b, e.Detail)
	}
	b = append(b, '}')
	return b, nil
}

// appendJSONString appends s as a JSON string. Printable text is written
// as strconv.Quote writes it; everything else gets an escape JSON accepts
// (Quote's \x, \a, \v and \U forms are not JSON), and invalid UTF-8
// becomes U+FFFD, as a JSON decoder would read it.
//
//lint:coldpath JSON encoding serves the offline-capture and SSE sinks, never a benchmark run's event path
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	for _, r := range s {
		switch {
		case r == '"' || r == '\\':
			b = append(b, '\\', byte(r))
		case r == '\n':
			b = append(b, `\n`...)
		case r == '\r':
			b = append(b, `\r`...)
		case r == '\t':
			b = append(b, `\t`...)
		case strconv.IsPrint(r) || r == utf8.RuneError:
			b = utf8.AppendRune(b, r)
		default:
			if r > 0xffff { // written as a surrogate pair
				var hi rune
				hi, r = utf16.EncodeRune(r)
				b = append(b, '\\', 'u', hex[hi>>12&0xf], hex[hi>>8&0xf], hex[hi>>4&0xf], hex[hi&0xf])
			}
			b = append(b, '\\', 'u', hex[r>>12&0xf], hex[r>>8&0xf], hex[r>>4&0xf], hex[r&0xf])
		}
	}
	return append(b, '"')
}

// KindFromString is the inverse of Kind.String.
func KindFromString(s string) (Kind, error) {
	for k := KindArrival; k <= KindAlertResolve; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("obs: unknown event kind %q", s)
}

// UnmarshalJSON is the inverse of MarshalJSON, so Go consumers of the JSONL
// stream and the /events endpoint can decode events back. Absent optional
// fields restore their "not applicable" defaults (-1 for Txn/Workflow).
func (e *Event) UnmarshalJSON(data []byte) error {
	var w struct {
		Seq       uint64  `json:"seq"`
		Time      float64 `json:"t"`
		Kind      string  `json:"kind"`
		Txn       *int64  `json:"txn"`
		Workflow  *int    `json:"wf"`
		Deadline  float64 `json:"deadline"`
		Remaining float64 `json:"remaining"`
		Tardiness float64 `json:"tardiness"`
		Detail    string  `json:"detail"`
	}
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	k, err := KindFromString(w.Kind)
	if err != nil {
		return err
	}
	*e = Event{
		Seq: w.Seq, Time: w.Time, Kind: k, Txn: -1, Workflow: -1,
		Deadline: w.Deadline, Remaining: w.Remaining, Tardiness: w.Tardiness,
		Detail: w.Detail,
	}
	if w.Txn != nil {
		e.Txn = txn.ID(*w.Txn)
	}
	if w.Workflow != nil {
		e.Workflow = *w.Workflow
	}
	return nil
}

// Sink receives decision events. Implementations stamp Event.Seq; emitters
// must treat the event as sent once Emit returns. Emit must be safe for use
// from the single simulation/executor goroutine; sinks that are also read
// concurrently (Ring) do their own locking.
type Sink interface {
	Emit(Event)
}

// SharedSink is the zero-copy variant of Sink: EmitShared receives a pointer
// to an event the caller owns and will reuse for the next emission. The sink
// borrows the event only for the duration of the call — anything it retains
// must be captured by copy before returning (Ring and Collector store a copy
// in their own buffers; the SSE hub copies into each subscriber channel).
// Every in-repo sink implements it; Emitter binds EmitShared directly so the
// enabled fast path never boxes an Event into an interface argument.
type SharedSink interface {
	EmitShared(*Event)
}

// BatchSink is the batched variant of SharedSink: EmitSharedBatch receives a
// slice of events the caller owns and will overwrite for its next batch. The
// borrow contract is the same as EmitShared's — anything retained must be
// captured by copy before returning — but the sink amortizes its per-event
// synchronization (one lock acquisition per batch instead of per event).
// Events must be applied in slice order; the slice is never empty.
type BatchSink interface {
	EmitSharedBatch([]Event)
}

// discard is the no-op sink.
type discard struct{}

func (discard) Emit(Event) {}

// Discard drops every event: the zero-overhead default for uninstrumented
// runs. Instrumentation sites may also skip emission entirely when their
// sink is nil; Discard exists so call sites can hold a non-nil Sink
// unconditionally.
var Discard Sink = discard{}

// Tee fans every event out to each sink in order. Nil sinks are skipped.
func Tee(sinks ...Sink) Sink {
	out := make([]Sink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil && s != Discard {
			out = append(out, s)
		}
	}
	switch len(out) {
	case 0:
		return Discard
	case 1:
		return out[0]
	}
	return tee(out)
}

type tee []Sink

func (t tee) Emit(ev Event) {
	for _, s := range t {
		s.Emit(ev)
	}
}

// Ring is a bounded in-memory event buffer: the newest Cap events are
// retained and older ones overwritten. It is safe for one writer and many
// concurrent readers — the backing store of the server's /events endpoint.
type Ring struct {
	mu   sync.Mutex
	buf  []Event // full-length (len == cap); slots [0, min(seq, cap)) are filled
	next int     // slot the next event lands in
	seq  uint64  // total events ever emitted; also the next Seq stamp
	cap  int
}

// NewRing returns a ring retaining the newest capacity events. The buffer is
// allocated at full length up front, so the emit path indexes into it and
// never appends.
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		panic(fmt.Sprintf("obs: ring capacity %d must be positive", capacity))
	}
	return &Ring{cap: capacity, buf: make([]Event, capacity)}
}

// Emit implements Sink.
func (r *Ring) Emit(ev Event) { r.EmitShared(&ev) }

// EmitShared implements SharedSink: the borrowed event is captured by copy
// into the ring's own slot before the call returns. The Seq stamp is not
// stored — a retained event's sequence number is its emission position,
// recomputed from the ring counters by Snapshot, so the emit path does no
// per-event work beyond the copy itself.
func (r *Ring) EmitShared(ev *Event) {
	r.mu.Lock()
	r.buf[r.next] = *ev
	r.seq++
	r.next++
	if r.next == r.cap {
		r.next = 0
	}
	r.mu.Unlock()
}

// EmitSharedBatch implements BatchSink: the whole batch is captured under one
// lock acquisition, in slice order. Each contiguous chunk lands via one
// copy() — one write-barrier sweep per chunk where per-event struct
// assignments pay it per event — and Seq stamping is deferred to Snapshot,
// so the locked section is nothing but the bulk copies.
//
//lint:hotpath
func (r *Ring) EmitSharedBatch(evs []Event) {
	r.mu.Lock()
	r.seq += uint64(len(evs))
	for len(evs) > 0 {
		c := copy(r.buf[r.next:r.cap], evs)
		r.next += c
		if r.next == r.cap {
			r.next = 0
		}
		evs = evs[c:]
	}
	r.mu.Unlock()
}

// Total returns the number of events ever emitted (not just retained).
func (r *Ring) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// RetainedBytes estimates the memory the ring pins for its event buffer.
func (r *Ring) RetainedBytes() int {
	return r.cap * int(unsafe.Sizeof(Event{}))
}

// Snapshot returns up to limit retained events, newest first. limit <= 0
// means everything retained. Seq stamps are applied here, to the returned
// copies: the i-th newest retained event was emission number seq-1-i, so the
// stamp is pure arithmetic and the emit path never stores it.
func (r *Ring) Snapshot(limit int) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.cap
	if r.seq < uint64(r.cap) {
		n = int(r.seq)
	}
	if limit <= 0 || limit > n {
		limit = n
	}
	out := make([]Event, 0, limit)
	for i := 0; i < limit; i++ {
		// Newest element sits just before next (mod cap).
		idx := (r.next - 1 - i + 2*r.cap) % r.cap
		out = append(out, r.buf[idx])
		out[i].Seq = r.seq - 1 - uint64(i)
	}
	return out
}

// Collector retains every event in emission order — the input of the
// timeline exporter and of post-run analyses where the full stream matters.
type Collector struct {
	mu     sync.Mutex
	events []Event
}

// Emit implements Sink.
func (c *Collector) Emit(ev Event) { c.EmitShared(&ev) }

// EmitShared implements SharedSink: the borrowed event is captured by copy
// into the collector's backing store, with the Seq stamp applied to the
// stored copy only.
func (c *Collector) EmitShared(ev *Event) {
	c.mu.Lock()
	//lint:ignore hotpath-alloc Collector retains the full stream by design (timeline export, post-run analysis)
	c.events = append(c.events, *ev)
	c.events[len(c.events)-1].Seq = uint64(len(c.events) - 1)
	c.mu.Unlock()
}

// EmitSharedBatch implements BatchSink: the whole batch is appended under one
// lock acquisition, in slice order.
func (c *Collector) EmitSharedBatch(evs []Event) {
	c.mu.Lock()
	for i := range evs {
		//lint:ignore hotpath-alloc Collector retains the full stream by design (timeline export, post-run analysis)
		c.events = append(c.events, evs[i])
		c.events[len(c.events)-1].Seq = uint64(len(c.events) - 1)
	}
	c.mu.Unlock()
}

// Events returns the collected stream in emission order. The returned slice
// is the collector's own backing store; callers must not emit concurrently
// with reading it.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.events
}

// JSONLWriter serializes each event as one JSON line — the sink behind
// `asetssim -events out.jsonl`. Writes are buffered; call Flush before
// closing the underlying writer. The first write error sticks and is
// reported by every later Flush; later events are dropped.
type JSONLWriter struct {
	w   *bufio.Writer
	seq uint64
	err error
}

// NewJSONLWriter returns a writer emitting one JSON object per line to w.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	return &JSONLWriter{w: bufio.NewWriter(w)}
}

// EmitShared implements SharedSink. The encoder works on a local copy, so
// the borrowed event is never mutated.
func (j *JSONLWriter) EmitShared(ev *Event) { j.Emit(*ev) }

// Emit implements Sink.
func (j *JSONLWriter) Emit(ev Event) {
	if j.err != nil {
		return
	}
	ev.Seq = j.seq
	j.seq++
	b, err := ev.MarshalJSON()
	if err == nil {
		//lint:ignore hotpath-alloc JSONL encoding allocates by design; this sink is for offline capture, not benchmark runs
		_, err = j.w.Write(append(b, '\n'))
	}
	if err != nil {
		j.err = err
	}
}

// Flush drains the buffer and returns the first error seen, if any.
func (j *JSONLWriter) Flush() error {
	if err := j.w.Flush(); j.err == nil && err != nil {
		j.err = err
	}
	return j.err
}

// ReadJSONL parses a JSONL event stream — the inverse of JSONLWriter, and
// the entry point of the post-run report generator (cmd/asetsreport). Blank
// lines are skipped; a malformed line fails with its 1-based line number.
func ReadJSONL(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var evs []Event
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var ev Event
		if err := ev.UnmarshalJSON(raw); err != nil {
			return nil, fmt.Errorf("obs: events line %d: %w", line, err)
		}
		evs = append(evs, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading events: %w", err)
	}
	return evs, nil
}
