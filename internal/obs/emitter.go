package obs

// Emitter is the devirtualized dispatch table of the enabled event path.
// The decision-event recorder and the SLO layer construct one at wiring
// time from whatever Sink chain the run was configured with; the fast path
// then fans each event out through a flat function-pointer table instead of
// nested Sink interface calls (Tee inside Tee inside Timed), and passes the
// event by pointer so a single caller-owned scratch struct serves every
// emission.
//
// The flattening happens once, at construction: Tee chains are inlined,
// Discard and nil sinks are dropped, and every sink implementing SharedSink
// is bound by its EmitShared method (zero-copy borrow). Sinks that only
// implement Sink are wrapped in an adapter that passes a value copy, so
// third-party sinks keep working unchanged.
//
// Each endpoint also gets a batch binding: sinks implementing BatchSink are
// bound by EmitSharedBatch (one synchronization per batch), everything else
// by a per-event loop over its single-event binding. EmitBatch drives those,
// which is how the instrumentation layer's event staging buffer reaches the
// Ring with one lock acquisition per batch instead of per event.
type Emitter struct {
	fns  []func(*Event)
	bfns []func([]Event) // parallel to fns: the batch binding of each endpoint
}

// NewEmitter builds the flattened dispatch table for sink. A nil or Discard
// sink yields an empty table whose Emit is a no-op loop over nothing.
//
//lint:coldpath emitter construction happens once at instrumentation wiring time
func NewEmitter(sink Sink) *Emitter {
	e := &Emitter{}
	e.add(sink)
	return e
}

//lint:coldpath emitter construction happens once at instrumentation wiring time
func (e *Emitter) add(s Sink) {
	switch v := s.(type) {
	case nil:
	case discard:
	case tee:
		for _, sub := range v {
			e.add(sub)
		}
	case SharedSink:
		e.fns = append(e.fns, v.EmitShared)
		if bs, ok := v.(BatchSink); ok {
			e.bfns = append(e.bfns, bs.EmitSharedBatch)
		} else {
			e.bfns = append(e.bfns, func(evs []Event) {
				for i := range evs {
					v.EmitShared(&evs[i])
				}
			})
		}
	default:
		e.fns = append(e.fns, func(ev *Event) { v.Emit(*ev) })
		e.bfns = append(e.bfns, func(evs []Event) {
			for i := range evs {
				v.Emit(evs[i])
			}
		})
	}
}

// Emit fans the event out to every sink in wiring order. The event is only
// borrowed for the duration of the call: sinks capture what they keep by
// copy (the SharedSink contract), so the caller may overwrite the struct for
// its next emission as soon as Emit returns.
//
// Emit is an observability hot-path root: with instrumentation enabled,
// every scheduling decision of a run flows through this loop.
//
//lint:hotpath
func (e *Emitter) Emit(ev *Event) {
	for _, fn := range e.fns {
		fn(ev)
	}
}

// EmitBatch fans a batch of events out to every sink in wiring order, using
// each endpoint's batch binding. The batch is borrowed under the SharedSink
// contract: the caller may overwrite the slice as soon as EmitBatch returns.
//
//lint:hotpath
func (e *Emitter) EmitBatch(evs []Event) {
	if len(evs) == 0 {
		return
	}
	for _, fn := range e.bfns {
		fn(evs)
	}
}

// Sinks returns the number of bound sink endpoints, so wiring code can tell
// an enabled pipeline from an empty one.
func (e *Emitter) Sinks() int { return len(e.fns) }
