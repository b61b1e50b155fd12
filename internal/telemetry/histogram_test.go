package telemetry

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	// v <= bound lands in that bucket: a value exactly on a boundary counts
	// into the boundary's own bucket, not the next one.
	h.Observe(0.5) // bucket le=1
	h.Observe(1)   // bucket le=1 (boundary)
	h.Observe(1.5) // bucket le=2
	h.Observe(2)   // bucket le=2 (boundary)
	h.Observe(4)   // bucket le=4 (boundary)
	h.Observe(9)   // overflow (+Inf)
	got := h.BucketCounts()
	want := []uint64{2, 2, 1, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket[%d] = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d", h.Count())
	}
	if math.Abs(h.Sum()-18.0) > 1e-9 {
		t.Fatalf("sum = %v", h.Sum())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram([]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	// Uniform 1..100: quantiles should interpolate to ~q*100.
	for v := 1; v <= 100; v++ {
		h.Observe(float64(v))
	}
	cases := []struct{ q, want, tol float64 }{
		{0.50, 50, 5},
		{0.90, 90, 5},
		{0.99, 99, 5},
		{1.00, 100, 1e-9},
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); math.Abs(got-c.want) > c.tol {
			t.Fatalf("q%v = %v, want ~%v", c.q, got, c.want)
		}
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", got)
	}
	h.Observe(100) // overflow only
	if got := h.Quantile(0.5); got != 2 {
		t.Fatalf("overflow-only quantile = %v, want clamp to largest bound 2", got)
	}
	if got := h.Quantile(math.NaN()); got != 0 {
		t.Fatalf("NaN quantile = %v", got)
	}
	if got := h.Quantile(-1); got != h.Quantile(0) {
		t.Fatal("q<0 must clamp to 0")
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram([]float64{0.5})
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
	if counts[0] != goroutines*perG || counts[1] != goroutines*perG {
		t.Fatalf("buckets = %v", counts)
	}
	want := float64(goroutines*perG) * (0.25 + 0.75)
	if math.Abs(h.Sum()-want) > 1e-6 {
		t.Fatalf("sum = %v, want %v", h.Sum(), want)
	}
}

func TestHistogramDefaultBucketsAndSort(t *testing.T) {
	h := NewHistogram(nil)
	if len(h.Bounds()) != len(DefLatencyBuckets) {
		t.Fatal("nil bounds must default to DefLatencyBuckets")
	}
	// Unsorted input bounds are sorted defensively.
	h2 := NewHistogram([]float64{3, 1, 2})
	b := h2.Bounds()
	if b[0] != 1 || b[1] != 2 || b[2] != 3 {
		t.Fatalf("bounds not sorted: %v", b)
	}
}

func TestTimerObserves(t *testing.T) {
	h := NewHistogram(DefLatencyBuckets)
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
