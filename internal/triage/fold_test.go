package triage

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/intent"
	"repro/internal/telemetry"
)

// A fold script is a run of failure records split into shards, three bytes
// per record:
//
//	byte 0  bits 0-2: kind (crash, "", anr, stall, silent-drop, failed-recovery,
//	        degraded-recovered, crash); bit 3: the record starts a new shard
//	byte 1  signature index 0-3 (root class and frame, ANR component, or
//	        fault and app), so records repeat buckets
//	byte 2  bit 0: carries an intent; bit 1: carries a flight window
//
// Every record has its own trace ID, so an exemplar's identity survives the
// copy Fold makes. Kinds "crash" and "" share every signature and hash.
var foldKinds = [8]string{KindCrash, "", KindANR, KindStall, KindSilentDrop, KindFailedRecovery, KindDegraded, KindCrash}

// parseFoldScript turns a fold script into its shards of raw records.
func parseFoldScript(data []byte) [][]*Crash {
	shards := [][]*Crash{nil}
	for i := 0; i+3 <= len(data); i += 3 {
		op, sig, flags := data[i], int(data[i+1]%4), data[i+2]
		if op&8 != 0 && len(shards[len(shards)-1]) > 0 {
			shards = append(shards, nil)
		}
		n := i / 3
		c := &Crash{Kind: foldKinds[op&7], Process: fmt.Sprintf("com.app%d", sig), Trace: fmt.Sprintf("r%d", n)}
		switch {
		case c.IsANR():
			c.Component = fmt.Sprintf("com.app%d/.Main", sig)
		case c.IsFault():
			c.Fault = "binder-dead"
		default:
			c.Classes = []string{"java.lang.RuntimeException", fmt.Sprintf("java.lang.E%d", sig)}
			c.Frames = []string{fmt.Sprintf("com.app.A.m%d", sig)}
		}
		if flags&1 != 0 {
			c.Intent = &intent.Intent{Action: fmt.Sprintf("act%d", n)}
		}
		if flags&2 != 0 {
			c.Flight = []telemetry.Event{{Seq: uint64(n), Kind: telemetry.EventVerdict}}
		}
		shards[len(shards)-1] = append(shards[len(shards)-1], c)
	}
	return shards
}

// sameBuckets fails unless got (built from folded records) equals want
// (built from the raw ones): tallies, bucket order, counts, signatures and
// exemplars, which may differ only in their fold weight.
func sameBuckets(t *testing.T, how string, got, want *Result) {
	t.Helper()
	if got.Crashes != want.Crashes || got.ANRs != want.ANRs || got.Faults != want.Faults || len(got.Buckets) != len(want.Buckets) {
		t.Fatalf("%s: %d records (%d ANRs, %d faults) in %d buckets, raw %d (%d, %d) in %d", how,
			got.Crashes, got.ANRs, got.Faults, len(got.Buckets), want.Crashes, want.ANRs, want.Faults, len(want.Buckets))
	}
	for i := range want.Buckets {
		g, w := got.Buckets[i], want.Buckets[i]
		ge := *g.Exemplar
		ge.Repeats = w.Exemplar.Repeats
		if g.Hash != w.Hash || g.Count != w.Count || g.Kind != w.Kind || g.Class != w.Class || g.Frame != w.Frame ||
			!reflect.DeepEqual(&ge, w.Exemplar) {
			t.Fatalf("%s bucket %d: %016x x%d %q %s %s exemplar %s, raw %016x x%d %q %s %s exemplar %s", how, i,
				g.Hash, g.Count, g.Kind, g.Class, g.Frame, g.Exemplar.Trace,
				w.Hash, w.Count, w.Kind, w.Class, w.Frame, w.Exemplar.Trace)
		}
	}
}

// FuzzFold: bucketing the per-shard folds, concatenated, equals bucketing
// the raw records, and so does folding that concatenation again; a Stream
// fed folded shard batches logs the same updates as one fed raw batches;
// Fold is idempotent and leaves its input alone.
func FuzzFold(f *testing.F) {
	for _, seed := range [][]byte{
		{},
		{0, 0, 0, 0, 0, 1, 0, 0, 3},
		{0, 1, 0, 1, 1, 0, 1, 1, 3, 8, 1, 1, 0, 1, 0},
		{2, 0, 2, 2, 0, 1, 2, 0, 1, 10, 0, 3, 2, 0, 0},
		{3, 2, 2, 3, 2, 0, 4, 2, 1, 11, 2, 3, 5, 2, 0, 6, 2, 2},
		{0, 3, 0, 1, 3, 0, 8, 3, 1, 9, 3, 1, 0, 3, 3, 8, 3, 0, 1, 3, 1},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		shards := parseFoldScript(data)
		var raw, folded []*Crash
		foldedShards := make([][]*Crash, len(shards))
		for i, shard := range shards {
			foldedShards[i] = Fold(shard)
			raw = append(raw, shard...)
			folded = append(folded, foldedShards[i]...)
			if again := Fold(foldedShards[i]); !reflect.DeepEqual(again, foldedShards[i]) {
				t.Fatalf("shard %d: Fold is not idempotent", i)
			}
		}
		for i, c := range raw {
			if c.Repeats != 0 {
				t.Fatalf("Fold modified raw record %d", i)
			}
		}
		want := Bucketize(raw)
		sameBuckets(t, "folded shards", Bucketize(folded), want)
		sameBuckets(t, "refolded concatenation", Bucketize(Fold(folded)), want)
		if Count(folded) != len(raw) {
			t.Fatalf("folded records stand for %d, raw has %d", Count(folded), len(raw))
		}

		rs, fs := NewStream(), NewStream()
		for i := range shards {
			rs.Add(shards[i])
			fs.Add(foldedShards[i])
		}
		ru, _, _ := rs.Since(0)
		fu, _, _ := fs.Since(0)
		if !reflect.DeepEqual(fu, ru) {
			t.Fatalf("stream updates differ\nfolded %+v\nraw    %+v", fu, ru)
		}
	})
}

// TestFoldWeights pins the fold rule on one bucket: the first record keeps
// every repeat of its kind, the first record with an intent is kept with
// its own weight, and a folded list's weights survive a second fold.
func TestFoldWeights(t *testing.T) {
	rec := func(kind, trace string, withIntent bool) *Crash {
		c := &Crash{Kind: kind, Classes: []string{"java.lang.E"}, Frames: []string{"com.a.A.m"}, Trace: trace}
		if withIntent {
			c.Intent = &intent.Intent{Action: trace}
		}
		return c
	}
	raw := []*Crash{
		rec(KindCrash, "a", false),
		rec(KindCrash, "b", true),
		rec(KindCrash, "c", true),
		rec("", "d", false),
		rec(KindCrash, "e", false),
		rec("", "f", true),
	}
	got := Fold(raw)
	var desc []string
	for _, c := range got {
		desc = append(desc, fmt.Sprintf("%s%d", c.Trace, c.Weight()))
	}
	if want := []string{"a3", "b1", "d2"}; !reflect.DeepEqual(desc, want) {
		t.Fatalf("Fold kept %v, want %v", desc, want)
	}
	if !reflect.DeepEqual(Fold(got), got) {
		t.Fatal("Fold of a folded list changed it")
	}
	b := Bucketize(got)
	if b.Crashes != 6 || len(b.Buckets) != 1 || b.Buckets[0].Count != 6 || b.Buckets[0].Exemplar.Trace != "b" {
		t.Fatalf("Bucketize(Fold) = %d records, %+v", b.Crashes, b.Buckets)
	}
}
