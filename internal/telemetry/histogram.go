package telemetry

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// DefLatencyBuckets covers 1µs..10s, the range of interest for both the
// simulator's per-intent wall-clock cost (sub-microsecond to tens of
// microseconds) and end-to-end batch operations.
var DefLatencyBuckets = []float64{
	1e-6, 2.5e-6, 5e-6,
	1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2,
	1e-1, 2.5e-1, 5e-1,
	1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket histogram with atomic bucket counts. A value
// v lands in the first bucket whose upper bound satisfies v <= bound; values
// above the last bound land in the implicit +Inf overflow bucket. A nil
// *Histogram is a no-op.
type Histogram struct {
	buckets []atomic.Uint64 // one per DefLatencyBuckets bound, then +Inf
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// NewHistogram builds a histogram over DefLatencyBuckets, the one bucket
// layout every histogram shares.
func NewHistogram() *Histogram {
	return &Histogram{buckets: make([]atomic.Uint64, len(DefLatencyBuckets)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v.
	i := sort.SearchFloat64s(DefLatencyBuckets, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Bounds returns a copy of the bucket upper bounds.
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return append([]float64(nil), DefLatencyBuckets...)
}

// BucketCounts returns the per-bucket counts; the last element is the +Inf
// overflow bucket.
func (h *Histogram) BucketCounts() []uint64 {
	if h == nil {
		return nil
	}
	out := make([]uint64, len(h.buckets))
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear interpolation
// inside the bucket that contains the target rank — the standard
// fixed-bucket estimator. Observations in the overflow bucket clamp to the
// largest bound. Returns 0 when empty or NaN input.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || math.IsNaN(q) {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	counts := h.BucketCounts()
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank > next {
			cum = next
			continue
		}
		if i == len(counts)-1 {
			// Overflow bucket: clamp to the largest finite bound.
			return DefLatencyBuckets[len(DefLatencyBuckets)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = DefLatencyBuckets[i-1]
		}
		hi := DefLatencyBuckets[i]
		frac := (rank - cum) / float64(c)
		return lo + (hi-lo)*frac
	}
	return DefLatencyBuckets[len(DefLatencyBuckets)-1]
}

// Timer is a running wall-clock measurement for one histogram. It is a
// value, so timing a call allocates nothing:
//
//	t := telemetry.StartTimer(h)
//	defer t.Stop()
type Timer struct {
	h     *Histogram
	start time.Time
}

// StartTimer starts timing into h. A nil h gives a timer whose Stop does
// nothing and which never reads the clock.
func StartTimer(h *Histogram) Timer {
	if h == nil {
		return Timer{}
	}
	return Timer{h: h, start: time.Now()}
}

// Stop records the seconds elapsed since StartTimer into the histogram.
func (t Timer) Stop() {
	if t.h != nil {
		t.h.Observe(time.Since(t.start).Seconds())
	}
}
