package triage

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/intent"
	"repro/internal/telemetry"
)

func streamCrash(class, frame string) *Crash {
	return &Crash{Classes: []string{class}, Frames: []string{frame}}
}

func TestStreamIncrementalUpdates(t *testing.T) {
	s := NewStream()
	npe, ise := "java.lang.NullPointerException", "java.lang.IllegalStateException"

	// Batch 1: two crashes in one bucket, one in another.
	s.Add([]*Crash{
		streamCrash(npe, "com.app.Main.onCreate"),
		streamCrash(npe, "com.app.Main.onCreate"),
		streamCrash(ise, "com.app.Sync.push"),
	})
	ups, cursor, closed := s.Since(0)
	if closed {
		t.Fatal("stream closed prematurely")
	}
	if len(ups) != 2 || cursor != 2 {
		t.Fatalf("after batch 1: %d updates, cursor %d; want 2, 2", len(ups), cursor)
	}
	for _, up := range ups {
		if !up.New {
			t.Errorf("bucket %016x not marked new on first sight", up.Hash)
		}
	}
	if ups[0].Count != 2 || ups[0].Class != npe {
		t.Errorf("first update = %+v, want count 2 class %s", ups[0], npe)
	}

	// Batch 2 grows the first bucket only; replay from the cursor sees
	// exactly one non-new update.
	s.Add([]*Crash{streamCrash(npe, "com.app.Main.onCreate")})
	ups, cursor2, _ := s.Since(cursor)
	if len(ups) != 1 || ups[0].New || ups[0].Count != 3 {
		t.Fatalf("after batch 2: ups=%+v", ups)
	}
	// A full replay returns the whole log.
	all, _, _ := s.Since(0)
	if len(all) != 3 {
		t.Fatalf("full replay has %d updates, want 3", len(all))
	}
	// Cursors beyond the log clamp instead of panicking.
	if ups, _, _ := s.Since(99); len(ups) != 0 {
		t.Fatalf("out-of-range cursor returned %d updates", len(ups))
	}

	// Totals match a one-shot Bucketize over the same crashes.
	snap := s.Snapshot()
	if snap.Crashes != 4 || snap.Unique() != 2 || snap.Buckets[0].Count != 3 {
		t.Fatalf("snapshot = crashes %d unique %d top %d", snap.Crashes, snap.Unique(), snap.Buckets[0].Count)
	}

	s.Close()
	if _, _, closed := s.Since(cursor2); !closed {
		t.Fatal("Since does not report closed")
	}
	// Adds after Close are dropped: a reclaimed lease's late upload must
	// not resurrect a finished campaign's stream.
	s.Add([]*Crash{streamCrash(npe, "com.app.Main.onCreate")})
	if ups, _, _ := s.Since(cursor2); len(ups) != 0 {
		t.Fatalf("add after close appended %d updates", len(ups))
	}
}

func TestStreamShipsExemplarOnce(t *testing.T) {
	s := NewStream()
	frame := "com.app.Main.onCreate"
	// First sighting has no reproducer intent attached.
	s.Add([]*Crash{streamCrash("java.lang.NullPointerException", frame)})
	ups, cursor, _ := s.Since(0)
	if len(ups) != 1 || ups[0].Exemplar != "" {
		t.Fatalf("first update = %+v, want no exemplar yet", ups)
	}

	// The second sighting carries the intent and a flight window: this
	// update ships them.
	it := &intent.Intent{Action: "android.intent.action.VIEW"}
	withIntent := streamCrash("java.lang.NullPointerException", frame)
	withIntent.Intent = it
	withIntent.Trace = "trace-1"
	withIntent.Flight = []telemetry.Event{{Seq: 1, Kind: telemetry.EventIntent}}
	s.Add([]*Crash{withIntent})
	ups, cursor, _ = s.Since(cursor)
	if len(ups) != 1 || ups[0].Exemplar == "" || ups[0].Trace != "trace-1" || len(ups[0].Flight) != 1 {
		t.Fatalf("exemplar update = %+v, want intent+flight attached", ups[0])
	}

	// Further growth never re-ships the exemplar payload.
	more := streamCrash("java.lang.NullPointerException", frame)
	more.Intent = it
	more.Flight = []telemetry.Event{{Seq: 1, Kind: telemetry.EventIntent}}
	s.Add([]*Crash{more})
	ups, _, _ = s.Since(cursor)
	if len(ups) != 1 || ups[0].Exemplar != "" || len(ups[0].Flight) != 0 {
		t.Fatalf("growth update = %+v, want bare count bump", ups[0])
	}
}

func TestStreamWaitWakesOnAddAndClose(t *testing.T) {
	s := NewStream()
	var wg sync.WaitGroup
	// A negative cursor is clamped like Since's: on an empty stream it
	// parks next to cursor 0 until the first Add.
	for _, cursor := range []int{0, -1} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ups, next, closed := s.Wait(context.Background(), cursor)
			if len(ups) != 1 || next != 1 || closed {
				t.Errorf("Wait(%d) woke with ups=%d next=%d closed=%v, want 1 update on open stream", cursor, len(ups), next, closed)
			}
		}()
	}
	awaitParked(t, s, 2)
	s.Add([]*Crash{streamCrash("java.lang.NullPointerException", "com.app.Main.onCreate")})
	wg.Wait()

	// A cursor beyond the end of the log is clamped like Since's: the
	// waiter wakes on the next Add with that update.
	wg.Add(1)
	go func() {
		defer wg.Done()
		ups, next, closed := s.Wait(context.Background(), 99)
		if len(ups) != 1 || ups[0].Class != "java.lang.IllegalStateException" || next != 2 || closed {
			t.Errorf("Wait(99) woke with ups=%v next=%d closed=%v, want the one new update", ups, next, closed)
		}
	}()
	// Add only once the waiter is parked, so it must be woken.
	awaitParked(t, s, 1)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	s.Add([]*Crash{streamCrash("java.lang.IllegalStateException", "com.app.Sync.push")})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Wait(99) slept through an Add")
	}

	// A waiter past the end of the log wakes on Close.
	_, cursor, _ := s.Since(0)
	wg.Add(1)
	go func() {
		defer wg.Done()
		ups, _, closed := s.Wait(context.Background(), cursor)
		if len(ups) != 0 || !closed {
			t.Errorf("Wait after close: ups=%d closed=%v, want closed with no updates", len(ups), closed)
		}
	}()
	time.Sleep(10 * time.Millisecond)
	s.Close()
	wg.Wait()

	// A cancelled context returns immediately with whatever exists.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ups, _, _ := s.Wait(ctx, 99)
	if len(ups) != 0 {
		t.Fatalf("cancelled Wait returned %d updates", len(ups))
	}
}

// awaitParked waits until n waiters are parked on s.
func awaitParked(t *testing.T, s *Stream, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		parked := len(s.waiters)
		s.mu.Unlock()
		if parked >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d waiters parked, want %d", parked, n)
		}
		runtime.Gosched()
	}
}

// TestStreamMatchesBucketize: however crashes are batched, a finished
// stream's snapshot agrees with the one-shot Bucketize pass over the same
// records (minimizer fields aside).
func TestStreamMatchesBucketize(t *testing.T) {
	crashes := []*Crash{
		streamCrash("java.lang.NullPointerException", "com.app.Main.onCreate"),
		streamCrash("java.lang.NullPointerException", "com.app.Main.onCreate"),
		streamCrash("java.lang.IllegalStateException", "com.app.Sync.push"),
		{Kind: KindANR, Process: "com.app", Component: "com.app/.Main"},
		streamCrash("java.lang.SecurityException", "com.app.Guard.check"),
	}
	want := Bucketize(crashes)

	// Feed the stream in three uneven batches (shard-completion order).
	s := NewStream()
	s.Add(crashes[:1])
	s.Add(crashes[1:4])
	s.Add(crashes[4:])
	got := s.Snapshot()

	if got.Crashes != want.Crashes || got.ANRs != want.ANRs || got.Unique() != want.Unique() {
		t.Fatalf("stream totals (%d, %d, %d) != bucketize (%d, %d, %d)",
			got.Crashes, got.ANRs, got.Unique(), want.Crashes, want.ANRs, want.Unique())
	}
	for i := range want.Buckets {
		g, w := got.Buckets[i], want.Buckets[i]
		if g.Hash != w.Hash || g.Count != w.Count || g.Class != w.Class || g.Frame != w.Frame {
			t.Errorf("bucket %d: stream %+v != bucketize %+v", i, g, w)
		}
	}
	if !reflect.DeepEqual(bucketHashes(got), bucketHashes(want)) {
		t.Errorf("bucket order differs: %v vs %v", bucketHashes(got), bucketHashes(want))
	}
}

// TestStreamLabelsFaultBuckets: fault-verdict buckets get the same
// signature on the live stream as in the final result (the injected fault
// kind as class, the app as frame), and the stream counts fault records.
func TestStreamLabelsFaultBuckets(t *testing.T) {
	crashes := []*Crash{
		{Kind: KindStall, Fault: "binder-dead", Process: "com.a", Component: "binder"},
		{Kind: KindStall, Fault: "binder-dead", Process: "com.a", Component: "binder"},
		{Kind: KindDegraded, Fault: "sensor-stall", Process: "com.b", Component: "sensor"},
		{Kind: KindANR, Process: "com.a", Component: "com.a/.Main"},
		streamCrash("java.lang.NullPointerException", "com.a.Main.onCreate"),
	}
	want := Bucketize(crashes)
	s := NewStream()
	s.Add(crashes[:2])
	s.Add(crashes[2:])
	got := s.Snapshot()
	if got.Crashes != want.Crashes || got.ANRs != want.ANRs || got.Faults != want.Faults || got.Faults != 3 {
		t.Fatalf("stream totals (%d, %d, %d) != bucketize (%d, %d, %d)",
			got.Crashes, got.ANRs, got.Faults, want.Crashes, want.ANRs, want.Faults)
	}
	type sig struct {
		Kind, Class, Frame string
		Count              int
	}
	sigs := func(r *Result) map[uint64]sig {
		out := make(map[uint64]sig)
		for _, b := range r.Buckets {
			out[b.Hash] = sig{b.Kind, b.Class, b.Frame, b.Count}
		}
		return out
	}
	if g, w := sigs(got), sigs(want); !reflect.DeepEqual(g, w) {
		t.Fatalf("stream buckets %+v != bucketize %+v", g, w)
	}
	// The live update log carries the same labels.
	ups, _, _ := s.Since(0)
	for _, up := range ups {
		w := sigs(want)[up.Hash]
		if up.Kind != w.Kind || up.Class != w.Class || up.Frame != w.Frame {
			t.Errorf("update %+v labels the bucket differently from %+v", up, w)
		}
	}
	for _, b := range want.Buckets {
		if b.Kind == KindStall && (b.Class != "binder-dead" || b.Frame != "com.a") {
			t.Fatalf("fault bucket labelled %q/%q, want binder-dead/com.a", b.Class, b.Frame)
		}
	}
}

func bucketHashes(r *Result) []uint64 {
	out := make([]uint64, len(r.Buckets))
	for i, b := range r.Buckets {
		out[i] = b.Hash
	}
	return out
}
