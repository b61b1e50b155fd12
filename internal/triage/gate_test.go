package triage

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/intent"
	"repro/internal/logcat"
	"repro/internal/telemetry"
)

// gateShard is one simulated shard: the records its collector kept, and
// the first window each record was offered while it was the most recent
// one — the window an ungated collector would have attached.
type gateShard struct {
	crashes []*Crash
	offered map[*Crash]offeredWindow
}

type offeredWindow struct {
	trace  string
	events []telemetry.Event
}

// ungated returns copies of the shard's records carrying every offered
// window, as the collector kept them before the exemplar gate.
func (s gateShard) ungated() []*Crash {
	out := make([]*Crash, len(s.crashes))
	for i, c := range s.crashes {
		u := *c
		w := s.offered[c]
		u.Trace, u.Flight = w.trace, w.events
		out[i] = &u
	}
	return out
}

// recordEntries returns the logcat lines that finalize one random record:
// a FATAL EXCEPTION block, an ANR line or a fault VERDICT line, drawn from
// small pools so buckets repeat.
func recordEntries(r *rand.Rand, pid int) []logcat.Entry {
	switch r.IntN(3) {
	case 0:
		classes := []string{"java.lang.NullPointerException", "java.lang.IllegalStateException"}
		frames := []string{"com.app.Main.onCreate", "com.app.Sync.push", "com.app.Svc.onStartCommand"}
		return crashEntries(pid, "com.app", []string{
			classes[r.IntN(len(classes))] + ": boom",
			"\tat " + frames[r.IntN(len(frames))] + "(Main.java:1)",
		})
	case 1:
		comps := []string{"com.app/.Main", "com.app/.Settings"}
		return []logcat.Entry{{PID: 1000, Tag: logcat.TagActivityManager,
			Message: "ANR in com.app (" + comps[r.IntN(len(comps))] + ")"}}
	default:
		verdicts := []string{KindStall, KindSilentDrop, KindFailedRecovery, KindDegraded}
		faults := []string{"binder-dead", "sensor-stall"}
		return []logcat.Entry{{PID: 1000, Tag: logcat.TagFaultInject, Message: fmt.Sprintf(
			"VERDICT verdict=%s fault=%s target=t app=com.app window=1-2 probes=0/1",
			verdicts[r.IntN(len(verdicts))], faults[r.IntN(len(faults))])}}
	}
}

// runGateShard drives one collector through n random records, attaching
// the way the farm's Observe hook does: the intent first (on some records),
// then one window, sometimes a second (a crash and a fault verdict settling
// in one delivery), sometimes nothing at all (a record no delivery
// observed).
func runGateShard(t *testing.T, r *rand.Rand, shard, n int) gateShard {
	t.Helper()
	c := NewCollector()
	s := gateShard{offered: make(map[*Crash]offeredWindow)}
	seq := uint64(0)
	for i := 0; i < n; i++ {
		c.ConsumeAll(recordEntries(r, 10+i))
		last := c.Crashes()[len(c.Crashes())-1]
		if r.IntN(8) == 0 {
			continue
		}
		if r.IntN(2) == 0 {
			c.AttachIntent(&intent.Intent{Action: fmt.Sprintf("act.%d.%d", shard, i)})
		}
		offers := 1 + r.IntN(2)
		for o := 0; o < offers; o++ {
			seq++
			w := offeredWindow{
				trace:  fmt.Sprintf("S%d", shard),
				events: []telemetry.Event{{Seq: seq, Kind: telemetry.EventVerdict, Detail: "d"}},
			}
			if _, ok := s.offered[last]; !ok {
				s.offered[last] = w
			}
			wanted := c.WantsFlight()
			if got := c.AttachFlight(w.trace, w.events); got != wanted {
				t.Fatalf("AttachFlight = %v right after WantsFlight = %v", got, wanted)
			}
		}
		if last.Flight != nil && !reflect.DeepEqual(last.Flight, s.offered[last].events) {
			t.Fatal("a record kept a window other than the first one offered to it")
		}
	}
	s.crashes = append(s.crashes, c.Crashes()...)
	return s
}

// windowedPerBucket counts, per bucket, the records carrying a window.
func windowedPerBucket(crashes []*Crash) map[uint64]int {
	out := make(map[uint64]int)
	for _, c := range crashes {
		if c.Flight != nil {
			out[c.Hash()]++
		}
	}
	return out
}

// TestFlightGateKeepsExemplarWindows: over seeded random shards, gating the
// windows changes no exemplar and no exemplar window, whether buckets are
// built by Bucketize in canonical order or by a Stream in any shard
// arrival order, and no shard keeps more than two windows per bucket.
func TestFlightGateKeepsExemplarWindows(t *testing.T) {
	dropped := 0
	for seed := uint64(1); seed <= 200; seed++ {
		r := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
		shards := make([]gateShard, 1+r.IntN(5))
		var gated, ungated [][]*Crash
		for i := range shards {
			shards[i] = runGateShard(t, r, i, r.IntN(30))
			gated = append(gated, shards[i].crashes)
			ungated = append(ungated, shards[i].ungated())
			for h, n := range windowedPerBucket(shards[i].crashes) {
				if n > 2 {
					t.Fatalf("seed %d shard %d: bucket %016x keeps %d windows, want <= 2", seed, i, h, n)
				}
			}
			dropped += len(shards[i].offered)
			for _, c := range shards[i].crashes {
				if c.Flight != nil {
					dropped--
				}
			}
		}

		var allG, allU []*Crash
		for i := range gated {
			allG = append(allG, gated[i]...)
			allU = append(allU, ungated[i]...)
		}
		index := func(all []*Crash) map[*Crash]int {
			m := make(map[*Crash]int, len(all))
			for i, c := range all {
				m[c] = i
			}
			return m
		}
		idxG, idxU := index(allG), index(allU)
		g, u := Bucketize(allG), Bucketize(allU)
		if len(g.Buckets) != len(u.Buckets) {
			t.Fatalf("seed %d: %d buckets gated, %d ungated", seed, len(g.Buckets), len(u.Buckets))
		}
		for i := range u.Buckets {
			bg, bu := g.Buckets[i], u.Buckets[i]
			if bg.Hash != bu.Hash || idxG[bg.Exemplar] != idxU[bu.Exemplar] {
				t.Fatalf("seed %d bucket %d: exemplar #%d gated, #%d ungated", seed, i, idxG[bg.Exemplar], idxU[bu.Exemplar])
			}
			if bg.Exemplar.Trace != bu.Exemplar.Trace || !reflect.DeepEqual(bg.Exemplar.Flight, bu.Exemplar.Flight) {
				t.Fatalf("seed %d bucket %016x: exemplar window %v gated, %v ungated",
					seed, bg.Hash, bg.Exemplar.Flight, bu.Exemplar.Flight)
			}
		}

		for p := 0; p < 4; p++ {
			sg, su := NewStream(), NewStream()
			for _, i := range r.Perm(len(shards)) {
				sg.Add(gated[i])
				su.Add(ungated[i])
			}
			ug, _, _ := sg.Since(0)
			uu, _, _ := su.Since(0)
			if !reflect.DeepEqual(ug, uu) {
				t.Fatalf("seed %d order %d: stream updates differ\ngated   %+v\nungated %+v", seed, p, ug, uu)
			}
			snapG, snapU := sg.Snapshot(), su.Snapshot()
			for i := range snapU.Buckets {
				eg, eu := snapG.Buckets[i].Exemplar, snapU.Buckets[i].Exemplar
				if eg.Trace != eu.Trace || !reflect.DeepEqual(eg.Flight, eu.Flight) {
					t.Fatalf("seed %d order %d: snapshot exemplar window differs for %016x", seed, p, snapU.Buckets[i].Hash)
				}
			}
		}
	}
	if dropped == 0 {
		t.Fatal("the gate dropped no window across 200 seeds; the generator no longer repeats buckets")
	}
}

// TestFlightGateDecidesOnce: a record's first window decides, and neither a
// second window (a fault verdict settling in the same delivery) nor an
// intent attached in between flips that decision.
func TestFlightGateDecidesOnce(t *testing.T) {
	npe := []string{"java.lang.NullPointerException: x", "\tat com.app.A.run(A.java:1)"}
	w := func(seq uint64) []telemetry.Event { return []telemetry.Event{{Seq: seq, Kind: telemetry.EventVerdict}} }

	c := NewCollector()
	if c.WantsFlight() || c.AttachFlight("T", w(1)) {
		t.Fatal("an empty collector must want no window")
	}
	c.ConsumeAll(crashEntries(10, "com.app", npe))
	if !c.AttachFlight("T", w(1)) {
		t.Fatal("the first record of a bucket must keep its window")
	}
	if c.WantsFlight() || c.AttachFlight("T", w(2)) {
		t.Fatal("a second window must not replace the first")
	}

	// Same bucket, no intent: not a candidate, even if an intent arrives
	// after the decision.
	c.ConsumeAll(crashEntries(11, "com.app", npe))
	if c.AttachFlight("T", w(3)) {
		t.Fatal("a repeat record without an intent must drop its window")
	}
	c.AttachIntent(&intent.Intent{Action: "late"})
	if c.WantsFlight() || c.AttachFlight("T", w(4)) {
		t.Fatal("the decision flipped after an intent arrived")
	}

	// The late intent still counts once that record settles: the bucket
	// already has its first record with an intent, so a later one with an
	// intent is no candidate. (Callers attach the intent first, as the farm
	// does, so the record that takes that role is the one that keeps a
	// window.)
	c.ConsumeAll(crashEntries(12, "com.app", npe))
	c.AttachIntent(&intent.Intent{Action: "third"})
	if c.AttachFlight("T", w(5)) {
		t.Fatal("a record behind the bucket's first intent must drop its window")
	}

	// A fresh bucket whose first record carries an intent keeps one window.
	c.ConsumeAll(crashEntries(13, "com.app", []string{"java.lang.IllegalStateException: y", "\tat com.app.B.run(B.java:2)"}))
	c.AttachIntent(&intent.Intent{Action: "fresh"})
	if !c.AttachFlight("T", w(6)) || c.AttachFlight("T", w(7)) {
		t.Fatal("a new bucket's first record must keep exactly its first window")
	}
	got := windowedPerBucket(c.Crashes())
	if len(got) != 2 || got[c.Crashes()[0].Hash()] != 1 || got[c.Crashes()[3].Hash()] != 1 {
		t.Fatalf("windowed records per bucket = %v", got)
	}
}
