package logcat

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"repro/internal/javalang"
	"repro/internal/vclock"
)

func TestBufferAppendAndSnapshot(t *testing.T) {
	b := NewBuffer(4)
	for i := range int32(3) {
		b.Append(Entry{PID: i})
	}
	snap := b.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("Len = %d", len(snap))
	}
	for i, e := range snap {
		if e.PID != int32(i) {
			t.Fatalf("snapshot out of order: %v", snap)
		}
	}
}

func TestBufferEviction(t *testing.T) {
	b := NewBuffer(3)
	for i := range int32(5) {
		b.Append(Entry{PID: i})
	}
	if b.Len() != 3 {
		t.Fatalf("Len = %d, want 3", b.Len())
	}
	if b.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", b.Dropped())
	}
	snap := b.Snapshot()
	want := []int32{2, 3, 4}
	for i, e := range snap {
		if e.PID != want[i] {
			t.Fatalf("after eviction snapshot = %v", snap)
		}
	}
}

// Property: for any sequence of appends, the snapshot is always the last
// min(n, cap) entries in order.
func TestQuickRingInvariant(t *testing.T) {
	f := func(pids []uint8) bool {
		const capN = 7
		b := NewBuffer(capN)
		for _, p := range pids {
			b.Append(Entry{PID: int32(p)})
		}
		snap := b.Snapshot()
		n := len(pids)
		wantLen := n
		if wantLen > capN {
			wantLen = capN
		}
		if len(snap) != wantLen {
			return false
		}
		for i := range snap {
			if snap[i].PID != int32(pids[n-wantLen+i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSinksObserveAppends(t *testing.T) {
	b := NewBuffer(2) // tiny: sinks must still see everything
	var seen []int32
	b.Subscribe(SinkFunc(func(e Entry) { seen = append(seen, e.PID) }))
	for i := range int32(5) {
		b.Append(Entry{PID: i})
	}
	if len(seen) != 5 {
		t.Fatalf("sink saw %d entries, want 5", len(seen))
	}
}

type countSink struct{ n int }

func (c *countSink) Consume(*Entry) { c.n++ }

func TestUnsubscribeDetachesOnlyThatSink(t *testing.T) {
	b := NewBuffer(4)
	kept, dropped := &countSink{}, &countSink{}
	b.Subscribe(kept)
	b.Subscribe(dropped)
	b.Subscribe(SinkFunc(func(Entry) {})) // an uncomparable sink must not trip the scan
	b.Append(Entry{PID: 1})
	b.Unsubscribe(dropped)
	b.Append(Entry{PID: 2})
	if kept.n != 2 || dropped.n != 1 {
		t.Fatalf("kept saw %d, dropped saw %d; want 2 and 1", kept.n, dropped.n)
	}
}

func TestLoggerStampsVirtualTime(t *testing.T) {
	clk := vclock.NewVirtual(time.Time{})
	b := NewBuffer(8)
	l := NewLogger(b, clk.Now)
	l.Log(100, 100, Info, TagActivityManager, "START u0 {act=%s}", "android.intent.action.VIEW")
	clk.Advance(time.Second)
	l.Log(100, 100, Error, TagAndroidRuntime, "FATAL EXCEPTION: main")
	snap := b.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("Len = %d", len(snap))
	}
	if !snap[1].Time().Equal(snap[0].Time().Add(time.Second)) {
		t.Fatalf("timestamps not advancing: %v %v", snap[0].Time(), snap[1].Time())
	}
	if !strings.Contains(snap[0].Message, "act=android.intent.action.VIEW") {
		t.Errorf("formatted message = %q", snap[0].Message)
	}
}

// TestBlockSharesTimestamp: the lines of a FATAL EXCEPTION block share
// one timestamp, even when the clock moves while a sink reads them.
func TestBlockSharesTimestamp(t *testing.T) {
	clk := vclock.NewVirtual(time.Time{})
	b := NewBuffer(16)
	b.Subscribe(SinkFunc(func(Entry) { clk.Advance(time.Millisecond) }))
	l := NewLogger(b, clk.Now)
	thr := javalang.New(javalang.ClassRuntime, "outer").
		WithStack(javalang.Frame{Class: "com.a.Main", Method: "run", File: "Main.java", Line: 1}).
		WithCause(javalang.New(javalang.ClassNullPointer, ""))
	l.FatalException(7, "com.a", thr)
	snap := b.Snapshot()
	if len(snap) != 5 {
		t.Fatalf("FatalException wrote %d entries, want 5", len(snap))
	}
	for _, e := range snap[1:] {
		if e.Time() != snap[0].Time() {
			t.Fatal("block entries have differing timestamps")
		}
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	e := Entry{PID: 1234, TID: 1240, Level: Error, Tag: TagAndroidRuntime, Message: "FATAL EXCEPTION: main"}
	e.SetTime(time.Date(0, 6, 1, 9, 30, 15, 123_000_000, time.UTC))
	line := e.Format()
	got, ok := ParseLine(line, 0)
	if !ok {
		t.Fatalf("ParseLine(%q) failed", line)
	}
	if got.PID != e.PID || got.TID != e.TID || got.Level != e.Level ||
		got.Tag != e.Tag || got.Message != e.Message {
		t.Fatalf("round trip: got %+v, want %+v", got, e)
	}
	if got.Time() != e.Time() {
		t.Fatalf("time round trip: got %v, want %v", got.Time(), e.Time())
	}
}

func TestParseLineRejections(t *testing.T) {
	for _, line := range []string{
		"",
		"short",
		"not a timestamp at all with enough length to pass",
		"06-01 09:30:15.123 xx yy Z Tag: msg",
	} {
		if _, ok := ParseLine(line, 0); ok {
			t.Errorf("ParseLine(%q) unexpectedly ok", line)
		}
	}
}

func TestParseLineMessageWithColons(t *testing.T) {
	e := Entry{PID: 1, TID: 2, Level: Info, Tag: "Tag", Message: "a: b: c"}
	e.SetTime(time.Date(0, 1, 2, 3, 4, 5, 0, time.UTC))
	got, ok := ParseLine(e.Format(), 0)
	if !ok || got.Message != "a: b: c" || got.Tag != "Tag" {
		t.Fatalf("got %+v ok=%v", got, ok)
	}
}

func TestDumpContainsAllLines(t *testing.T) {
	b := NewBuffer(8)
	l := NewLogger(b, func() time.Time { return vclock.Epoch })
	l.Log(1, 1, Info, "A", "first")
	l.Log(2, 2, Warn, "B", "second")
	dump := b.Dump()
	if !strings.Contains(dump, "first") || !strings.Contains(dump, "second") {
		t.Fatalf("Dump = %q", dump)
	}
	if got := strings.Count(dump, "\n"); got != 2 {
		t.Fatalf("Dump has %d lines", got)
	}
}

func TestLevelStrings(t *testing.T) {
	levels := map[Level]string{Verbose: "V", Debug: "D", Info: "I", Warn: "W", Error: "E", Fatal: "F"}
	for l, s := range levels {
		if l.String() != s {
			t.Errorf("%v.String() = %q, want %q", int(l), l.String(), s)
		}
	}
}

// TestDefaultCapacity: a non-positive capacity retains DefaultCapacity
// entries, and the ring allocates its chunks only as appends reach them.
func TestDefaultCapacity(t *testing.T) {
	b := NewBuffer(0)
	if b.capN != DefaultCapacity || len(b.chunks) != DefaultCapacity/chunkLen {
		t.Fatalf("capacity %d in %d chunks, want %d in %d", b.capN, len(b.chunks), DefaultCapacity, DefaultCapacity/chunkLen)
	}
	if b.Cap() != 0 {
		t.Fatalf("a fresh ring allocated %d slots, want 0", b.Cap())
	}
	for i := range DefaultCapacity + 1 {
		b.Append(Entry{PID: int32(i)})
		if want := min(DefaultCapacity, (i/chunkLen+1)*chunkLen); b.Cap() != want {
			t.Fatalf("after %d appends the ring allocated %d slots, want %d", i+1, b.Cap(), want)
		}
	}
	if b.Len() != DefaultCapacity || b.Dropped() != 1 {
		t.Fatalf("Len=%d Dropped=%d, want %d and 1", b.Len(), b.Dropped(), DefaultCapacity)
	}
}

// TestEntrySize pins the size of Entry, which every ring slot holds and
// every SinkFunc receives by value: a lazy payload's text operand shares
// Message, its UID or PID shares one 32-bit number field, and the time is
// Unix seconds and nanoseconds.
func TestEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(Payload{}); got != 88 {
		t.Fatalf("sizeof(Payload) = %d bytes, want 88", got)
	}
	if got := unsafe.Sizeof(Entry{}); got != 144 {
		t.Fatalf("sizeof(Entry) = %d bytes, want 144", got)
	}
}

// TestFirstDropWarnsOnlyWithoutSinks: the first-drop callback stays quiet
// while a sink sees every line, fires once on the first drop nobody
// observed, and re-arms on reset; Dropped counts every drop throughout.
func TestFirstDropWarnsOnlyWithoutSinks(t *testing.T) {
	b := NewBuffer(2)
	warned := 0
	b.OnFirstDrop(func(capacity int) {
		if capacity != 2 {
			t.Errorf("capacity = %d, want 2", capacity)
		}
		warned++
	})
	sink := &countSink{}
	b.Subscribe(sink)
	for i := range int32(5) {
		b.Append(Entry{PID: i})
	}
	if warned != 0 || b.Dropped() != 3 {
		t.Fatalf("with a sink: warned %d times, dropped %d; want 0 and 3", warned, b.Dropped())
	}
	b.Unsubscribe(sink)
	for i := int32(5); i <= 7; i++ {
		b.Append(Entry{PID: i})
	}
	if warned != 1 || b.Dropped() != 6 {
		t.Fatalf("without a sink: warned %d times, dropped %d; want 1 and 6", warned, b.Dropped())
	}
	b.ResetRetain(nil)
	for i := range int32(3) {
		b.Append(Entry{PID: i})
	}
	if warned != 2 || b.Dropped() != 1 {
		t.Fatalf("after reset: warned %d times, dropped %d; want 2 and 1", warned, b.Dropped())
	}
}
