package obs_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// midScrape is a sink that, at the at-th completion, drains the span
// builder and renders the registry once — a scrape taken mid-run, at a point
// fixed by the event stream.
type midScrape struct {
	spans    *obs.SpanBuilder
	reg      *obs.Registry
	at, seen int
	out      []byte
	switches int
	err      error
}

func (m *midScrape) Emit(ev obs.Event) {
	switch ev.Kind {
	case obs.KindModeSwitch:
		m.switches++
	case obs.KindCompletion:
		m.seen++
		if m.seen != m.at {
			return
		}
		m.spans.Flush()
		var buf bytes.Buffer
		m.err = obs.WritePrometheus(&buf, m.reg)
		m.out = buf.Bytes()
	}
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestPrometheusBytesPinned pins the exact /metrics bytes of a fixed-seed
// ASETS* workflow run with windowed span sketches: one scrape mid-run (after
// a Flush) and one at the end. The run switches scheduler modes, so both edf
// and hdf cells are exported, and the Keep bound recycles spans. Any change
// to sketch bucketing, running sums, cell keying, metric naming, sort order
// or the exposition format moves a digest.
func TestPrometheusBytesPinned(t *testing.T) {
	cfg := workload.Default(1.0, 11).WithWorkflows(4, 1).WithWeights()
	cfg.N = 600
	set := workload.MustGenerate(cfg)
	reg := obs.NewRegistry()
	spans := obs.NewSpanBuilder(set, obs.SpanOptions{Metrics: reg, Window: 100, Keep: 64})
	mid := &midScrape{spans: spans, reg: reg, at: set.Len() / 2}
	if _, err := sim.New(sim.Config{Sink: obs.Tee(spans, mid), Metrics: reg}).Run(set, core.New()); err != nil {
		t.Fatal(err)
	}
	if mid.err != nil || mid.out == nil {
		t.Fatalf("mid-run scrape did not happen (err %v)", mid.err)
	}
	if mid.switches == 0 {
		t.Fatal("run made no mode switch; the pin would not cover hdf cells")
	}
	var end bytes.Buffer
	if err := obs.WritePrometheus(&end, reg); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`mode="edf"`, `mode="hdf"`, `asets_window_tardiness{window="0000"`} {
		if !strings.Contains(end.String(), want) {
			t.Fatalf("final export lacks %s", want)
		}
	}
	const (
		wantMid = "1ec1aa08dadecb251ed49dfba42059372d381f235784e274641ddb32ee8c73e5"
		wantEnd = "dfe092f6669588d745602c3563039b1a7472af4df34b28a351b9f130dc8f36d0"
	)
	if got := sha(mid.out); got != wantMid {
		t.Errorf("mid-run /metrics digest %s, want %s (%d bytes)", got, wantMid, len(mid.out))
	}
	if got := sha(end.Bytes()); got != wantEnd {
		t.Errorf("final /metrics digest %s, want %s (%d bytes)", got, wantEnd, end.Len())
	}
}
