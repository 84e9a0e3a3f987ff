package sim

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/txn"
)

// ClosedLoopResult aggregates a closed-loop run.
type ClosedLoopResult struct {
	// Summary holds the standard per-transaction metrics.
	Summary *metrics.Summary
	// PageLatencies holds, per session and page, the time from request to
	// full render.
	PageLatencies [][]float64
	// AbandonRate is the fraction of pages whose render latency exceeded
	// the page's patience bound (see RunClosedLoop's patience parameter).
	AbandonRate float64
}

// RunClosedLoop simulates sessions against the backend under the given
// policy. Transactions exist up front (the scheduler sees a fixed universe)
// but their arrival times are determined during simulation: all
// transactions of a page arrive when the page is requested, which happens a
// think time after the previous page of the same session finished.
//
// The set's Arrival fields are ignored as absolute times; each
// transaction's Deadline must be stored RELATIVE to its page request (the
// closed-loop generator in the workload package does this). Config.Patience
// is the page-level abandonment bound: a page whose render latency exceeds
// it counts as abandoned (the session still continues — the paper's
// lost-revenue framing needs the rate, and cancelling in-flight work would
// change the offered load mid-run).
//
// The sessions are an arrival source for Run's event loop, so Servers,
// Recorder, Sink, Metrics and SLO work exactly as in Run. Faults and Admit
// are rejected: flash-crowd bursts and cascade shedding are defined over
// fixed arrival times, which a closed loop does not have.
func (e *Sim) RunClosedLoop(set *txn.Set, sessions []txn.Session, s sched.Scheduler) (*ClosedLoopResult, error) {
	if e.cfg.Faults != nil || e.cfg.Admit != nil {
		return nil, fmt.Errorf("sim: closed loop does not support fault injection or admission control (bursts and cascade shedding need fixed arrival times)")
	}
	if err := validateSessions(set, sessions); err != nil {
		return nil, err
	}

	// Arrival and Deadline are rewritten from relative to absolute as pages
	// are issued; restore the originals afterwards so the set can be
	// replayed under another policy.
	n := set.Len()
	origArrival := make([]float64, n)
	origDeadline := make([]float64, n)
	for i, t := range set.Txns {
		origArrival[i] = t.Arrival
		origDeadline[i] = t.Deadline
	}
	defer func() {
		for i, t := range set.Txns {
			t.Arrival = origArrival[i]
			t.Deadline = origDeadline[i]
		}
	}()

	src := newSessionSource(set, sessions)
	summary, err := e.run(set, s, hooks{sessions: src})
	if err != nil {
		return nil, err
	}
	abandoned, pages := 0, 0
	for _, sess := range src.latencies {
		for _, lat := range sess {
			pages++
			if e.cfg.Patience > 0 && lat > e.cfg.Patience {
				abandoned++
			}
		}
	}
	res := &ClosedLoopResult{Summary: summary, PageLatencies: src.latencies}
	if pages > 0 {
		res.AbandonRate = float64(abandoned) / float64(pages)
	}
	return res, nil
}

// sessionSource is the closed-loop arrival source. Each session has one
// page in flight at a time; when the page's last transaction completes the
// source records its latency and releases the session's next page a think
// time later, by inserting the page into the loop's arrival order.
type sessionSource struct {
	set       *txn.Set
	sessions  []txn.Session
	sessionOf []int // transaction -> its session
	// page, requested and remaining describe each session's page in flight.
	page      []int
	requested []float64
	remaining []int
	latencies [][]float64
}

func newSessionSource(set *txn.Set, sessions []txn.Session) *sessionSource {
	src := &sessionSource{
		set:       set,
		sessions:  sessions,
		sessionOf: make([]int, set.Len()),
		page:      make([]int, len(sessions)),
		requested: make([]float64, len(sessions)),
		remaining: make([]int, len(sessions)),
		latencies: make([][]float64, len(sessions)),
	}
	for si, sess := range sessions {
		src.latencies[si] = make([]float64, len(sess.Pages))
		for _, page := range sess.Pages {
			for _, id := range page {
				src.sessionOf[id] = si
			}
		}
	}
	return src
}

// start requests every session's first page.
func (src *sessionSource) start(l *loop) {
	for si, sess := range src.sessions {
		if len(sess.Pages) > 0 {
			src.request(l, si, 0, sess.ThinkTimes[0])
		}
	}
}

// release accounts t's completion at now to its page, and requests the
// session's next page when t was the page's last transaction.
func (src *sessionSource) release(l *loop, now float64, t *txn.Transaction) {
	si := src.sessionOf[t.ID]
	src.remaining[si]--
	if src.remaining[si] > 0 {
		return
	}
	pi := src.page[si]
	src.latencies[si][pi] = now - src.requested[si]
	if sess := src.sessions[si]; pi+1 < len(sess.Pages) {
		src.request(l, si, pi+1, now+sess.ThinkTimes[pi+1])
	}
}

// request issues page pi of session si at time at: the page's transactions
// take at as their arrival, their relative deadlines become absolute, and
// they join the loop's pending arrivals ordered by (time, session), in page
// order within the page. The whole page converts before any fragment is
// delivered, so a policy that looks ahead at a workflow (ASETS*'s
// representative) sees every fragment's absolute deadline.
func (src *sessionSource) request(l *loop, si, pi int, at float64) {
	page := src.sessions[si].Pages[pi]
	src.page[si], src.requested[si], src.remaining[si] = pi, at, len(page)
	// Pending arrivals are whole pages of distinct sessions, so (time,
	// session) orders them totally.
	j := len(l.order)
	for j > l.next {
		prev := l.order[j-1]
		//lint:ignore floatcmp tie-break: pages requested at the same instant deliver in session order
		if prev.Arrival < at || (prev.Arrival == at && src.sessionOf[prev.ID] < si) {
			break
		}
		j--
	}
	// The order was allocated with room for the whole set, and every
	// transaction is requested exactly once.
	l.order = l.order[:len(l.order)+len(page)]
	copy(l.order[j+len(page):], l.order[j:])
	for k, id := range page {
		t := src.set.ByID(id)
		t.Arrival = at
		t.Deadline += at
		l.order[j+k] = t
	}
}

// validateSessions checks that the sessions partition the transaction set.
func validateSessions(set *txn.Set, sessions []txn.Session) error {
	seen := make([]bool, set.Len())
	count := 0
	for si, sess := range sessions {
		if len(sess.ThinkTimes) != len(sess.Pages) {
			return fmt.Errorf("sim: session %d has %d pages but %d think times", si, len(sess.Pages), len(sess.ThinkTimes))
		}
		for pi, page := range sess.Pages {
			if len(page) == 0 {
				return fmt.Errorf("sim: session %d page %d is empty", si, pi)
			}
			for _, id := range page {
				if id < 0 || int(id) >= set.Len() {
					return fmt.Errorf("sim: session %d references unknown transaction %d", si, id)
				}
				if seen[id] {
					return fmt.Errorf("sim: transaction %d appears in two pages", id)
				}
				seen[id] = true
				count++
			}
		}
	}
	if count != set.Len() {
		return fmt.Errorf("sim: sessions cover %d of %d transactions", count, set.Len())
	}
	return nil
}
