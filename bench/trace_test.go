package main

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		// 0: root [0,100] with two overlapping children and one running on
		// another goroutine past the root's end.
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 50},
		{Name: "b", Parent: 0, Start: 30, End: 70},
		{Name: "other-goroutine", Parent: 0, Lane: 2, Start: 90, End: 130},
		// 4: a grandchild covers part of a, not of root directly.
		{Name: "a.1", Parent: 1, Start: 20, End: 25},
		// 5: a leaf with no children.
		{Name: "leaf", Parent: -1, Start: 200, End: 260},
	}
	got := selfTimes(spans)
	// root: covered by [10,70] ∪ [90,100] = 70.
	want := []int64{30, 35, 40, 40, 5, 60}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	if c := coverage(spans, 0); math.Abs(c-0.7) > 1e-12 {
		t.Errorf("coverage(root) = %v, want 0.7", c)
	}
	by := selfSeconds(spans, 0)
	if by["leaf"] != 0 || by["a.1"] != 5e-9 {
		t.Errorf("selfSeconds(root) = %v: must cover root's subtree only", by)
	}
}

func TestAggregateChildrenPackFromParentStart(t *testing.T) {
	tr := newTracer()
	p := tr.add(span{Name: "dispatch", Parent: -1, Start: 1000, End: 2000})
	tr.aggregate(p, "A/x", []string{"sink1", "sink2"}, []time.Duration{300, 200})
	spans := tr.snapshot()
	if spans[1].Start != 1000 || spans[1].End != 1300 || spans[2].Start != 1300 || spans[2].End != 1500 {
		t.Fatalf("aggregate children laid out at %+v", spans[1:])
	}
	if got := selfTimes(spans)[p]; got != 500 {
		t.Errorf("self(dispatch) = %d, want 500", got)
	}
}

func TestChromeTrace(t *testing.T) {
	spans := []span{
		{Name: "replay", Parent: -1, Start: 0, End: 5000},
		{Name: "shard", Trace: "A/com.x", Parent: 0, Lane: 1, Start: 1000, End: 3000, Agg: true},
	}
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, []tracedProcess{{Name: "wear-study", Spans: spans}}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 3 || doc.TraceEvents[0].Phase != "M" {
		t.Fatalf("events = %+v", doc.TraceEvents)
	}
	ev := doc.TraceEvents[2]
	if ev.Phase != "X" || ev.TS != 1 || ev.Dur != 2 || ev.TID != 1 || ev.Args["trace"] != "A/com.x" || ev.Args["parent"] != "replay" {
		t.Errorf("shard event = %+v", ev)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25];
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0];
	// statistics.quantiles([4, 1], n=4) == [0.25, 2.5, 4.75].
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{4, 1}, [3]float64{0.25, 2.5, 4.75}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	if p := percentile(xs, 0.5); p != 30 {
		t.Errorf("p50 = %v", p)
	}
	if p := percentile(xs, 0.9); math.Abs(p-46) > 1e-9 {
		t.Errorf("p90 = %v", p)
	}
	if p := percentile(nil, 0.9); p != 0 {
		t.Errorf("p90 of nothing = %v", p)
	}
}
