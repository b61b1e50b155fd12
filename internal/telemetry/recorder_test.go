package telemetry

import (
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"
)

func TestRecorderWindowOrderAndWrap(t *testing.T) {
	r := NewRecorder(4)
	r.BeginTrace("A/com.foo")
	for i := 0; i < 6; i++ {
		r.Record(EventIntent, "com.foo/.Main", "android.intent.action.VIEW", "")
	}
	r.RecordNow(EventVerdict, "com.foo", "", "crash")

	w := r.Window()
	if len(w) != 4 {
		t.Fatalf("window length = %d, want capacity 4", len(w))
	}
	for i := 1; i < len(w); i++ {
		if w[i].Seq != w[i-1].Seq+1 {
			t.Fatalf("window not sequential: %d then %d", w[i-1].Seq, w[i].Seq)
		}
	}
	if last := w[len(w)-1]; last.Kind != EventVerdict || last.Detail != "crash" {
		t.Fatalf("window does not end at the failure: %+v", last)
	}
	if w[0].Seq != 4 {
		t.Fatalf("oldest retained seq = %d, want 4 (7 recorded, capacity 4)", w[0].Seq)
	}
	for _, e := range w {
		if e.Trace != "A/com.foo" {
			t.Fatalf("event missing trace ID: %+v", e)
		}
	}
	if r.Recorded() != 7 {
		t.Fatalf("Recorded() = %d, want 7", r.Recorded())
	}

	// The window is a copy: later records must not mutate it.
	r.Record(EventIntent, "overwrite", "", "")
	if w[0].Subject == "overwrite" {
		t.Fatal("Window aliases the live ring")
	}
}

func TestRecorderBeginTraceResetsWindow(t *testing.T) {
	r := NewRecorder(8)
	r.BeginTrace("A/one")
	r.Record(EventIntent, "x", "", "")
	r.BeginTrace("B/two")
	r.Record(EventIntent, "y", "", "")

	w := r.Window()
	if len(w) != 1 || w[0].Trace != "B/two" || w[0].Subject != "y" {
		t.Fatalf("window after BeginTrace = %+v, want only the new trace's events", w)
	}
	if r.Trace() != "B/two" {
		t.Fatalf("Trace() = %q", r.Trace())
	}
	// Seq keeps running across traces.
	if w[0].Seq != 2 {
		t.Fatalf("seq after trace reset = %d, want 2", w[0].Seq)
	}
}

func TestRecorderClockStamps(t *testing.T) {
	now := time.Date(2017, 3, 1, 0, 0, 0, 0, time.UTC)
	r := NewRecorder(32)
	r.SetClock(func() time.Time { return now })

	r.Record(EventIntent, "a", "", "") // seq 0 -> exact sample
	now = now.Add(time.Second)
	r.Record(EventIntent, "b", "", "") // within the sampling window: stale stamp
	r.RecordNow(EventVerdict, "c", "", "anr")

	w := r.Window()
	if !w[0].Time.Equal(time.Date(2017, 3, 1, 0, 0, 0, 0, time.UTC)) {
		t.Fatalf("first stamp = %v", w[0].Time)
	}
	if !w[1].Time.Equal(w[0].Time) {
		t.Fatalf("sampled stamp refreshed too eagerly: %v", w[1].Time)
	}
	if !w[2].Time.Equal(now) {
		t.Fatalf("RecordNow stamp = %v, want exact %v", w[2].Time, now)
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.BeginTrace("x")
	r.Record(EventIntent, "a", "b", "c")
	r.RecordNow(EventVerdict, "a", "b", "c")
	r.SetClock(time.Now)
	if r.Window() != nil || r.Recorded() != 0 || r.Trace() != "" {
		t.Fatal("nil recorder must no-op")
	}
}

func TestEventJSONRoundTrip(t *testing.T) {
	in := Event{
		Seq:     9,
		Time:    time.Date(1, 1, 1, 0, 0, 42, 500, time.UTC),
		Kind:    EventDenial,
		Trace:   "C/com.bar",
		Subject: "com.bar/.Svc",
		Action:  "android.intent.action.SEND",
		Detail:  "not-exported",
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Event
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
	// The journal's byte-identity contract needs marshal(unmarshal(x)) ==
	// marshal(x), too.
	again, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Fatalf("re-marshal differs:\n%s\n%s", data, again)
	}
	var bad Event
	if err := json.Unmarshal([]byte(`{"seq":1,"kind":"nope"}`), &bad); err == nil {
		t.Fatal("unknown kind must fail to parse")
	}
}

// TestEventKindTextCodec pins the JSON bytes of a window holding every event
// kind: journals and exports written before the text codec must read and
// re-encode unchanged.
func TestEventKindTextCodec(t *testing.T) {
	var window []Event
	for k := EventIntent; k <= EventFault; k++ {
		window = append(window, Event{Seq: uint64(k), Kind: k, Detail: "d"})
	}
	const golden = `[` +
		`{"seq":1,"time":"0001-01-01T00:00:00Z","kind":"intent","detail":"d"},` +
		`{"seq":2,"time":"0001-01-01T00:00:00Z","kind":"dispatch","detail":"d"},` +
		`{"seq":3,"time":"0001-01-01T00:00:00Z","kind":"denial","detail":"d"},` +
		`{"seq":4,"time":"0001-01-01T00:00:00Z","kind":"reboot","detail":"d"},` +
		`{"seq":5,"time":"0001-01-01T00:00:00Z","kind":"verdict","detail":"d"},` +
		`{"seq":6,"time":"0001-01-01T00:00:00Z","kind":"binder","detail":"d"},` +
		`{"seq":7,"time":"0001-01-01T00:00:00Z","kind":"fault","detail":"d"}]`
	data, err := json.Marshal(window)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != golden {
		t.Fatalf("window encodes as\n%s\nwant\n%s", data, golden)
	}
	var back []Event
	if err := json.Unmarshal([]byte(golden), &back); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(back, window) {
		t.Fatalf("golden decodes as %+v, want %+v", back, window)
	}
	for _, bad := range []string{`"nope"`, `"Intent"`, `""`, `3`} {
		var k EventKind
		if err := json.Unmarshal([]byte(bad), &k); err == nil {
			t.Errorf("kind %s decoded as %v, want an error", bad, k)
		}
	}
	// A null kind stays zero, and the zero kind round-trips as "unknown".
	for _, zero := range []string{`null`, `"unknown"`} {
		k := EventKind(0)
		if err := json.Unmarshal([]byte(zero), &k); err != nil || k != 0 {
			t.Errorf("kind %s decoded as %v (err %v), want the zero kind", zero, k, err)
		}
		if data, err := json.Marshal(k); err != nil || string(data) != `"unknown"` {
			t.Errorf("zero kind encodes as %s (err %v), want \"unknown\"", data, err)
		}
	}
}

func TestRecorderRecordAllocFree(t *testing.T) {
	r := NewRecorder(16)
	r.SetClock(func() time.Time { return time.Time{} })
	r.BeginTrace("A/com.foo")
	allocs := testing.AllocsPerRun(1000, func() {
		r.Record(EventDispatch, "com.foo/.Main", "android.intent.action.VIEW", "no-effect")
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %.2f per op, want 0", allocs)
	}
}

func TestRegistryAbsorb(t *testing.T) {
	dst := NewRegistry()
	dst.Counter("dispatch_total", L("result", "crash")).Add(2)

	src := NewRegistry()
	src.Counter("dispatch_total", L("result", "crash")).Add(3)
	src.Counter("dispatch_total", L("result", "anr")).Add(1)
	src.Gauge("live_processes").Set(4)
	src.Histogram("lat_seconds").Observe(1.5)
	hookRan := false
	src.OnCollect(func() { hookRan = true; src.Gauge("derived").Set(7) })

	dst.Absorb(src)
	if !hookRan {
		t.Fatal("Absorb must run src's collect hooks first")
	}
	if v := dst.Counter("dispatch_total", L("result", "crash")).Value(); v != 5 {
		t.Fatalf("crash counter = %d, want 5", v)
	}
	if v := dst.Counter("dispatch_total", L("result", "anr")).Value(); v != 1 {
		t.Fatalf("anr counter = %d, want 1", v)
	}
	if v := dst.Gauge("live_processes").Value(); v != 4 {
		t.Fatalf("gauge = %v, want 4", v)
	}
	if v := dst.Gauge("derived").Value(); v != 7 {
		t.Fatalf("derived gauge = %v, want 7", v)
	}
	h := dst.Histogram("lat_seconds")
	if h.Count() != 1 || h.Sum() != 1.5 {
		t.Fatalf("histogram count=%d sum=%v", h.Count(), h.Sum())
	}

	// Absorbing a second shard is additive and commutative.
	src2 := NewRegistry()
	src2.Counter("dispatch_total", L("result", "crash")).Add(10)
	src2.Histogram("lat_seconds").Observe(0.5)
	dst.Absorb(src2)
	if v := dst.Counter("dispatch_total", L("result", "crash")).Value(); v != 15 {
		t.Fatalf("crash counter after second absorb = %d, want 15", v)
	}
	if h.Count() != 2 || h.Sum() != 2 {
		t.Fatalf("histogram after second absorb count=%d sum=%v", h.Count(), h.Sum())
	}

	// Nil receivers and sources no-op.
	var nilReg *Registry
	nilReg.Absorb(src)
	dst.Absorb(nil)
}

// TestRecorderWindowMatchesReference drives recorders of several capacities
// through a long pseudo-random mix of bulk, exact and coded records and
// trace changes, with a clock that moves on every read, and checks every
// window against a model that keeps each event whole: the derived sequence
// numbers, the shared trace, the coded details and the held stamps must
// read back as recorded, across many wraps of the ring.
func TestRecorderWindowMatchesReference(t *testing.T) {
	codes := []string{"unknown", "no-effect", "crash"}
	for _, capacity := range []int{1, 2, 4, 64} {
		now := time.Date(2017, 3, 1, 0, 0, 0, 0, time.UTC)
		r := NewRecorder(capacity)
		r.SetClock(func() time.Time { now = now.Add(time.Millisecond); return now })
		r.SetDetailCodes(codes)
		var model []Event
		var seq uint64
		var stamp time.Time
		trace := ""
		x := uint32(7)
		for i := 0; i < 5000; i++ {
			x = x*1664525 + 1013904223
			subject := fmt.Sprintf("s%d", i)
			op := x >> 28 % 8
			if op == 0 && x>>20%4 == 0 {
				trace = fmt.Sprintf("T%d", i)
				r.BeginTrace(trace)
				model = model[:0]
				continue
			}
			exact := op == 1 || op == 2 || op == 3
			if exact || seq%stampSampleEvery == 0 {
				stamp = now.Add(time.Millisecond) // the read the recorder makes
			}
			seq++
			ev := Event{Seq: seq, Time: stamp, Kind: EventDispatch, Trace: trace, Subject: subject, Action: "a"}
			switch op {
			case 1:
				ev.Detail = "exact"
				r.RecordNow(EventDispatch, subject, "a", "exact")
			case 2, 4:
				code := uint8(x >> 16 % 3)
				ev.Detail = codes[code]
				r.RecordCode(EventDispatch, subject, "a", code, op == 2)
			case 3:
				ev.Detail = codes[1]
				r.RecordCode(EventDispatch, subject, "a", 1, true)
			default:
				ev.Detail = "bulk"
				r.Record(EventDispatch, subject, "a", "bulk")
			}
			model = append(model, ev)
			if len(model) > len(r.events) {
				model = model[1:]
			}
			if i%97 == 0 || i == 4999 {
				got := r.Window()
				if len(got) != len(model) || (len(model) > 0 && !reflect.DeepEqual(got, model)) {
					t.Fatalf("capacity %d, step %d:\n got  %+v\n want %+v", capacity, i, got, model)
				}
			}
		}
	}
}
