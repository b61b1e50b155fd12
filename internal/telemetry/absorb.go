package telemetry

import "math"

// Merge folds src's observations into h bucket by bucket: every histogram
// has the same buckets.
func (h *Histogram) Merge(src *Histogram) {
	if h == nil || src == nil {
		return
	}
	for i := range src.buckets {
		if n := src.buckets[i].Load(); n != 0 {
			h.buckets[i].Add(n)
		}
	}
	h.count.Add(src.count.Load())
	if s := src.Sum(); s != 0 {
		for {
			old := h.sumBits.Load()
			nw := math.Float64bits(math.Float64frombits(old) + s)
			if h.sumBits.CompareAndSwap(old, nw) {
				break
			}
		}
	}
}

// Absorb folds every metric registered in src into r, creating metrics in
// r on first sight: counters add, gauges add, histograms merge bucket by
// bucket. src's collect hooks run first so derived gauges are current.
// Absorbing is commutative, so the farm can fold per-shard registries into
// the campaign-wide registry in completion order and still expose the same
// totals for any worker count. Summing is the right aggregation for every
// per-shard gauge the pipeline registers (component counts, dropped lines,
// boot counts); a gauge that must not be summed belongs on the farm
// registry directly, not on a shard. Absorbing a metric whose name is
// registered in r under a different kind panics, like any registry lookup.
func (r *Registry) Absorb(src *Registry) {
	if r == nil || src == nil {
		return
	}
	src.collect()
	for _, e := range src.entries() {
		switch e.kind {
		case kindCounter:
			if v := e.counter.Value(); v != 0 {
				r.Counter(e.name, e.labels...).Add(v)
			} else {
				r.Counter(e.name, e.labels...)
			}
		case kindGauge:
			if v := e.gauge.Value(); v != 0 {
				r.Gauge(e.name, e.labels...).Add(v)
			} else {
				r.Gauge(e.name, e.labels...)
			}
		case kindHistogram:
			r.Histogram(e.name, e.labels...).Merge(e.hist)
		}
	}
}
