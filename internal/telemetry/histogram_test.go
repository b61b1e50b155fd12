package telemetry

import (
	"math"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"
)

// bucketOf is the index of the bucket whose upper bound is le, or the
// overflow bucket's for +Inf.
func bucketOf(t *testing.T, le float64) int {
	t.Helper()
	if math.IsInf(le, 1) {
		return len(DefLatencyBuckets)
	}
	i := slices.Index(DefLatencyBuckets, le)
	if i < 0 {
		t.Fatalf("%v is not a bucket bound", le)
	}
	return i
}

func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram()
	// v <= bound lands in that bucket: a value exactly on a boundary counts
	// into the boundary's own bucket, not the next one.
	h.Observe(0.75) // bucket le=1
	h.Observe(1)    // bucket le=1 (boundary)
	h.Observe(1.5)  // bucket le=2.5
	h.Observe(2.5)  // bucket le=2.5 (boundary)
	h.Observe(10)   // bucket le=10 (boundary)
	h.Observe(20)   // overflow (+Inf)
	want := make([]uint64, len(DefLatencyBuckets)+1)
	want[bucketOf(t, 1)] = 2
	want[bucketOf(t, 2.5)] = 2
	want[bucketOf(t, 10)] = 1
	want[bucketOf(t, math.Inf(1))] = 1
	if got := h.BucketCounts(); !slices.Equal(got, want) {
		t.Fatalf("buckets = %v, want %v", got, want)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d", h.Count())
	}
	if math.Abs(h.Sum()-35.75) > 1e-9 {
		t.Fatalf("sum = %v", h.Sum())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	// Uniform 10ms..1s in 10ms steps, uniform within each bucket too:
	// quantiles should interpolate to ~q seconds.
	for v := 1; v <= 100; v++ {
		h.Observe(float64(v) / 100)
	}
	cases := []struct{ q, want, tol float64 }{
		{0.50, 0.50, 0.05},
		{0.90, 0.90, 0.05},
		{0.99, 0.99, 0.05},
		{1.00, 1.00, 1e-9},
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); math.Abs(got-c.want) > c.tol {
			t.Fatalf("q%v = %v, want ~%v", c.q, got, c.want)
		}
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	h := NewHistogram()
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", got)
	}
	h.Observe(100) // overflow only
	if got := h.Quantile(0.5); got != 10 {
		t.Fatalf("overflow-only quantile = %v, want clamp to largest bound 10", got)
	}
	if got := h.Quantile(math.NaN()); got != 0 {
		t.Fatalf("NaN quantile = %v", got)
	}
	if got := h.Quantile(-1); got != h.Quantile(0) {
		t.Fatal("q<0 must clamp to 0")
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram()
	const goroutines, perG = 8, 4000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				h.Observe(0.25)
				h.Observe(0.75)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 2*goroutines*perG {
		t.Fatalf("count = %d", h.Count())
	}
	counts := h.BucketCounts()
	if counts[bucketOf(t, 0.25)] != goroutines*perG || counts[bucketOf(t, 1)] != goroutines*perG {
		t.Fatalf("buckets = %v", counts)
	}
	want := float64(goroutines*perG) * (0.25 + 0.75)
	if math.Abs(h.Sum()-want) > 1e-6 {
		t.Fatalf("sum = %v, want %v", h.Sum(), want)
	}
}

func TestHistogramDefaultBuckets(t *testing.T) {
	if !sort.Float64sAreSorted(DefLatencyBuckets) {
		t.Fatalf("DefLatencyBuckets not ascending: %v", DefLatencyBuckets)
	}
	h := NewHistogram()
	b := h.Bounds()
	if !slices.Equal(b, DefLatencyBuckets) || len(h.BucketCounts()) != len(b)+1 {
		t.Fatalf("bounds %v and %d buckets, want DefLatencyBuckets and one overflow bucket", b, len(h.BucketCounts()))
	}
	// Bounds is a copy: writing it leaves the layout alone.
	b[0] = 99
	if h.Bounds()[0] != DefLatencyBuckets[0] || DefLatencyBuckets[0] == 99 {
		t.Fatal("Bounds returned the histogram's own slice")
	}
}

func TestTimerObserves(t *testing.T) {
	h := NewHistogram()
	timer := StartTimer(h)
	time.Sleep(time.Millisecond)
	timer.Stop()
	if h.Count() != 1 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() <= 0 {
		t.Fatalf("sum = %v, want > 0", h.Sum())
	}
	// Nil histogram: a no-op timer, no panic.
	StartTimer(nil).Stop()
}
