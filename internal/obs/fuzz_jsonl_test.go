package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

// jsonlSeeds holds one line of every event kind, taken from the pinned
// streams of internal/cluster/stream_pin_test.go.
var jsonlSeeds = []string{
	`{"seq":0,"t":1.7785196506863845,"kind":"arrival","txn":0,"deadline":71.2676221745016,"remaining":45}`,
	`{"seq":1,"t":1.7785196506863845,"kind":"dispatch","txn":0,"deadline":71.2676221745016,"remaining":45}`,
	`{"seq":2,"t":46.778519650686384,"kind":"completion","txn":0,"deadline":71.2676221745016}`,
	`{"seq":3,"t":60,"kind":"stall","txn":-1,"remaining":6,"detail":"stall"}`,
	`{"seq":6,"t":97.63255204259373,"kind":"preempt","txn":1,"deadline":246.9107049288923,"remaining":29.79953208535173}`,
	`{"seq":22,"t":148.72940806258833,"kind":"mode_switch","txn":-1,"wf":1,"deadline":194.37130219153494,"remaining":48,"detail":"edf->hdf"}`,
	`{"seq":25,"t":150,"kind":"abort","txn":4,"deadline":155.06848472191905,"detail":"crash"}`,
	`{"seq":48,"t":191,"kind":"deadline_miss","txn":4,"deadline":155.06848472191905,"tardiness":35.93151527808095}`,
	`{"seq":49,"t":191,"kind":"aging","txn":3,"deadline":194.37130219153494,"remaining":48,"detail":"t_old"}`,
	`{"seq":51,"t":200,"kind":"alert_fire","txn":-1,"deadline":10,"detail":"light/burn"}`,
	`{"seq":130,"t":400.3291832946867,"kind":"degrade_enter","txn":-1}`,
	`{"seq":133,"t":401.3281088694464,"kind":"shed","txn":24,"deadline":404.3109777733779,"remaining":1,"detail":"missratio:0.25,0.2"}`,
	`{"seq":174,"t":700,"kind":"alert_resolve","txn":-1,"detail":"medium/burn"}`,
	`{"seq":222,"t":978.1206080593436,"kind":"restart","txn":49,"deadline":980.0861396681105,"remaining":1}`,
	`{"seq":990,"t":5196.173660649482,"kind":"degrade_exit","txn":-1}`,
	`{"seq":0,"t":2.2422136008866556,"kind":"route","txn":0,"deadline":8.727986723101665,"remaining":3,"detail":"0"}`,
	`{"seq":41,"t":50,"kind":"eject","txn":-1,"detail":"1"}`,
	`{"seq":42,"t":50.25,"kind":"failover","txn":4,"deadline":53.478160141932875,"remaining":25,"detail":"2<-1"}`,
	`{"seq":57,"t":58,"kind":"recover","txn":-1,"detail":"1"}`,
	`{"seq":88,"t":86.77767671686141,"kind":"validate_fail","txn":2,"deadline":81.76011383100348,"remaining":31,"detail":"0"}`,
	`{"seq":24,"t":31.649180924249894,"kind":"conflict_defer","txn":6,"deadline":63.27260191371472,"remaining":30}`,
}

func marshalJSONL(t *testing.T, evs []Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, ev := range evs {
		b, err := ev.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// FuzzReadJSONL: the stream reader never panics, and whatever it accepts
// survives parse → marshal → parse → marshal with identical bytes both
// times, so a stream written by JSONLWriter reads back as itself.
func FuzzReadJSONL(f *testing.F) {
	for _, line := range jsonlSeeds {
		f.Add([]byte(line + "\n"))
	}
	var all bytes.Buffer
	for _, line := range jsonlSeeds {
		all.WriteString(line + "\n\n")
	}
	f.Add(all.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		first := marshalJSONL(t, evs)
		again, err := ReadJSONL(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("re-reading marshalled events: %v\n%s", err, first)
		}
		if second := marshalJSONL(t, again); !bytes.Equal(first, second) {
			t.Fatalf("round trip moved bytes:\n%s\n%s", first, second)
		}
	})
}

// TestJSONLSeedsCoverEveryKind keeps the fuzz corpus honest: one seed line
// per kind, each already in MarshalJSON's canonical form.
func TestJSONLSeedsCoverEveryKind(t *testing.T) {
	seen := map[Kind]bool{}
	for _, line := range jsonlSeeds {
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		if b, _ := ev.MarshalJSON(); string(b) != line {
			t.Errorf("seed is not canonical:\n%s\n%s", line, b)
		}
		seen[ev.Kind] = true
	}
	for k := KindArrival; k <= KindAlertResolve; k++ {
		if !seen[k] {
			t.Errorf("no seed line of kind %s", k)
		}
	}
}

// TestEventDetailEncodesAsJSON: a detail with control characters, invalid
// UTF-8 or non-printable runes encodes as valid JSON and reads back as the
// string a JSON decoder makes of it. strconv.Quote's \x01 escape, which the
// encoder once wrote, is not JSON, so such a stream failed to read back.
func TestEventDetailEncodesAsJSON(t *testing.T) {
	for _, detail := range []string{"a\x01b", "bell\a\vtab\t", "bad\xffutf8", "tag\U000E0001", "sep\u2028", `q"\`, "naïve→ok"} {
		ev := Event{Kind: KindShed, Txn: 1, Workflow: -1, Detail: detail}
		b, err := ev.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !json.Valid(b) {
			t.Fatalf("detail %q encodes as invalid JSON: %s", detail, b)
		}
		var want struct{ Detail string }
		if err := json.Unmarshal(b, &want); err != nil {
			t.Fatal(err)
		}
		var back Event
		if err := back.UnmarshalJSON(b); err != nil {
			t.Fatal(err)
		}
		if back.Detail != want.Detail {
			t.Fatalf("detail %q read back as %q, want %q", detail, back.Detail, want.Detail)
		}
		if b2, _ := back.MarshalJSON(); !bytes.Equal(b, b2) {
			t.Fatalf("detail %q: %s re-encodes as %s", detail, b, b2)
		}
	}
}
