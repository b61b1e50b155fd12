package logcat

import (
	"testing"
	"time"

	"repro/internal/vclock"
)

// TestBufferStartsEmpty pins the allocation property every device relies
// on: a fresh ring allocates no entries, a chunk once allocated stays where
// it is while later chunks fill, and a ring smaller than a chunk allocates
// one chunk.
func TestBufferStartsEmpty(t *testing.T) {
	b := NewBuffer(DefaultCapacity)
	if b.Cap() != 0 {
		t.Fatalf("fresh ring allocated %d slots, want 0", b.Cap())
	}
	b.Append(Entry{PID: 1})
	first := &b.chunks[0][0]
	for i := range int32(3 * chunkLen) {
		b.Append(Entry{PID: i + 2})
	}
	if &b.chunks[0][0] != first || first.PID != 1 {
		t.Fatal("filling later chunks moved the first one")
	}
	if b.Cap() != 4*chunkLen {
		t.Fatalf("ring holding %d entries allocated %d slots, want %d", b.Len(), b.Cap(), 4*chunkLen)
	}
	small := NewBuffer(8)
	for i := range int32(20) {
		small.Append(Entry{PID: i})
	}
	if small.Len() != 8 || small.Dropped() != 12 || small.Cap() != chunkLen {
		t.Fatalf("small ring Len=%d Dropped=%d Cap=%d, want 8/12/%d", small.Len(), small.Dropped(), small.Cap(), chunkLen)
	}
}

// TestRestoreSeedsWithoutFanout verifies Restore replays a baseline into
// the ring without invoking sinks or counting new appends beyond the
// restored total.
func TestRestoreSeedsWithoutFanout(t *testing.T) {
	baseline := []Entry{{PID: 1}, {PID: 2}, {PID: 3}}
	b := NewBuffer(16)
	b.Restore(baseline)
	var seen int
	b.Subscribe(SinkFunc(func(Entry) { seen++ }))
	if seen != 0 {
		t.Fatalf("Restore fanned out %d entries to sinks", seen)
	}
	b.Append(Entry{PID: 4})
	if seen != 1 {
		t.Fatalf("post-restore append fanout = %d, want 1", seen)
	}
	snap := b.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("Len after restore+append = %d, want 4", len(snap))
	}
	for i, e := range snap {
		if e.PID != int32(i+1) {
			t.Fatalf("snapshot = %v", snap)
		}
	}
}

// TestEntryTimeRoundTrip: every time a ring holds comes back from Time
// exactly, as the same time.Time value: the virtual clocks' times and
// ParseLine's, whose year-0 instants lie beyond an int64 nanosecond count.
func TestEntryTimeRoundTrip(t *testing.T) {
	clk := vclock.NewVirtual(time.Time{})
	clk.Advance(36*time.Hour + 123_456_789*time.Nanosecond)
	times := []time.Time{
		vclock.Epoch,
		clk.Now(),
		time.Time{}, // the zero clock of a device booted at the zero time
		time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(0, 12, 31, 23, 59, 59, 999_999_999, time.UTC),
		time.Date(1969, 12, 31, 23, 59, 59, 500_000_000, time.UTC),
		time.Date(2262, 4, 12, 0, 0, 0, 1, time.UTC), // past UnixNano's range
	}
	for _, line := range []string{
		"01-01 00:00:00.000  1000  1000 I boot: BOOT_COMPLETED",
		"06-01 09:30:15.123  1234  1240 E AndroidRuntime: FATAL EXCEPTION: main",
		"12-31 23:59:59.999     7     7 W com.a: x",
	} {
		for _, year := range []int{0, 2017} {
			e, ok := ParseLine(line, year)
			if !ok {
				t.Fatalf("ParseLine(%q) failed", line)
			}
			ts, err := time.Parse(threadtimeLayout, line[:18])
			if err != nil {
				t.Fatal(err)
			}
			if want := ts.AddDate(year, 0, 0); e.Time() != want {
				t.Fatalf("ParseLine(%q, %d).Time() = %v, want %v", line, year, e.Time(), want)
			}
			times = append(times, e.Time())
		}
	}
	for _, want := range times {
		var e Entry
		e.SetTime(want)
		if got := e.Time(); got != want {
			t.Errorf("SetTime(%v): Time() = %v", want, got)
		}
	}
}

// Operations of a FuzzBuffer script: each is one op byte and one argument
// byte.
const (
	opAppend      = iota // Append 1+16*arg entries
	opLogLazy            // log 1+arg lazy entries through a Logger
	opRestore            // Restore arg%40 entries
	opResetRetain        // ResetRetain with a baseline of arg%40 entries
	opSubscribe          // Subscribe sink arg%3
	opUnsubscribe        // Unsubscribe sink arg%3
	opSnapshot           // compare Snapshot with the model
	numOps
)

// pidSink records the PIDs it consumes.
type pidSink struct{ pids []int32 }

func (s *pidSink) Consume(e *Entry) { s.pids = append(s.pids, e.PID) }

// ringModel is the ring's specification: a plain slice of the retained
// entries, the drop count, the sinks subscribed (in registration order)
// and what each sink has seen.
type ringModel struct {
	capN     int
	entries  []Entry
	dropped  uint64
	maxCount int // the most entries ever held: the chunks reached
	subs     []int
	seen     [3][]int32
}

func (m *ringModel) push(e Entry) {
	m.entries = append(m.entries, e)
	if len(m.entries) > m.capN {
		m.entries = m.entries[1:]
		m.dropped++
	}
	m.maxCount = max(m.maxCount, len(m.entries))
}

func (m *ringModel) publish(e Entry) {
	m.push(e)
	for _, id := range m.subs {
		m.seen[id] = append(m.seen[id], e.PID)
	}
}

// FuzzBuffer drives the chunked ring and a plain-slice model with the same
// script of appends, lazy logs, restores, resets, subscriptions and
// snapshots, at capacities below, at and across chunk boundaries, through
// any number of wraps. After every step Len, Dropped and the allocated slot
// count (the chunks the most entries ever held reach, and no more) must
// match the model; snapshots and every sink's stream must equal it.
func FuzzBuffer(f *testing.F) {
	// A 2,048-entry ring filled through two wraps, an 8-entry ring
	// overfilled by 12, and a baseline restored before a sink subscribes.
	f.Add(uint16(2047), []byte{opAppend, 255, opSnapshot, 0, opAppend, 0, opAppend, 1, opSnapshot, 0})
	f.Add(uint16(7), []byte{opAppend, 1, opSnapshot, 0, opAppend, 0, opAppend, 0, opAppend, 0, opSnapshot, 0})
	f.Add(uint16(15), []byte{opRestore, 3, opSubscribe, 0, opAppend, 0, opSnapshot, 0})
	// A capacity that is not a multiple of the chunk length, wrapped while
	// sinks come and go, then reset and refilled.
	f.Add(uint16(3*chunkLen+50), []byte{
		opSubscribe, 1, opSubscribe, 1, opAppend, 100, opLogLazy, 255, opUnsubscribe, 1,
		opSubscribe, 2, opAppend, 70, opSnapshot, 0, opResetRetain, 39, opAppend, 200, opSnapshot, 0,
	})
	f.Add(uint16(2), []byte{opResetRetain, 30, opSnapshot, 0, opLogLazy, 5, opRestore, 7, opSnapshot, 0})
	f.Fuzz(func(t *testing.T, capSel uint16, script []byte) {
		if len(script) > 64 {
			script = script[:64] // 32 steps wrap the largest ring many times
		}
		capN := 1 + int(capSel)%(16*chunkLen+chunkLen/2)
		b := NewBuffer(capN)
		m := &ringModel{capN: capN}
		clk := vclock.NewVirtual(time.Time{})
		l := NewLogger(b, clk.Now)
		sinks := [3]*pidSink{{}, {}, {}}
		var seq int32
		next := func() Entry {
			seq++
			e := Entry{PID: seq, TID: seq, Level: Info, Tag: "T"}
			e.SetTime(vclock.Epoch.Add(time.Duration(seq) * time.Millisecond))
			return e
		}
		batch := func(n int) []Entry {
			out := make([]Entry, n)
			for i := range out {
				out[i] = next()
			}
			return out
		}
		for len(script) >= 2 {
			op, arg := script[0]%numOps, script[1]
			script = script[2:]
			switch op {
			case opAppend:
				for range 1 + 16*int(arg) {
					e := next()
					b.Append(e)
					m.publish(e)
				}
			case opLogLazy:
				for range 1 + int(arg) {
					seq++
					clk.Advance(time.Duration(arg) * time.Microsecond)
					p := Payload{Op: MsgDied, Verb: "com.a", N: seq}
					l.LogLazy(int(seq), int(seq), Warn, TagActivityManager, "", &p)
					e := Entry{PID: seq, TID: seq, Level: Warn, Tag: TagActivityManager, Payload: p}
					e.SetTime(clk.Now())
					m.publish(e)
				}
			case opRestore:
				entries := batch(int(arg) % 40)
				b.Restore(entries)
				for _, e := range entries {
					m.push(e)
				}
			case opResetRetain:
				baseline := batch(int(arg) % 40)
				b.ResetRetain(baseline)
				maxCount := m.maxCount
				*m = ringModel{capN: capN, seen: m.seen}
				for _, e := range baseline {
					m.push(e)
				}
				m.maxCount = max(maxCount, m.maxCount)
			case opSubscribe:
				b.Subscribe(sinks[arg%3])
				m.subs = append(m.subs, int(arg%3))
			case opUnsubscribe:
				b.Unsubscribe(sinks[arg%3])
				var kept []int
				for _, id := range m.subs {
					if id != int(arg%3) {
						kept = append(kept, id)
					}
				}
				m.subs = kept
			case opSnapshot:
				checkSnapshot(t, b, m)
			}
			if b.Len() != len(m.entries) || b.Dropped() != m.dropped {
				t.Fatalf("op %d: Len=%d Dropped=%d, want %d and %d", op, b.Len(), b.Dropped(), len(m.entries), m.dropped)
			}
			if want := (m.maxCount + chunkMask) / chunkLen * chunkLen; b.Cap() != want {
				t.Fatalf("op %d: %d slots allocated after holding at most %d entries, want %d", op, b.Cap(), m.maxCount, want)
			}
		}
		checkSnapshot(t, b, m)
		for i, s := range sinks {
			if len(s.pids) != len(m.seen[i]) {
				t.Fatalf("sink %d saw %d entries, want %d", i, len(s.pids), len(m.seen[i]))
			}
			for j := range s.pids {
				if s.pids[j] != m.seen[i][j] {
					t.Fatalf("sink %d entry %d has PID %d, want %d", i, j, s.pids[j], m.seen[i][j])
				}
			}
		}
	})
}

func checkSnapshot(t *testing.T, b *Buffer, m *ringModel) {
	t.Helper()
	snap := b.Snapshot()
	if len(snap) != len(m.entries) {
		t.Fatalf("snapshot holds %d entries, want %d", len(snap), len(m.entries))
	}
	for i := range snap {
		if snap[i] != m.entries[i] {
			t.Fatalf("snapshot[%d] = %+v, want %+v", i, snap[i], m.entries[i])
		}
	}
}
