// Package telemetry is the observability substrate for the QGJ pipeline:
// an atomic counter/gauge registry, fixed-bucket latency histograms with
// quantile estimation, and a flight recorder of structured dispatch events.
// It is dependency-free (standard library only) so every layer — core,
// binder, wearos, logcat, analysis, adb, uifuzz — can import it without
// cycles.
//
// Design notes:
//
//   - Hot paths cache metric handles (a *Counter, *Gauge, *Histogram) once
//     and then touch only atomics; the registry map is consulted only at
//     wiring time.
//   - Everything is nil-safe: a nil *Registry returns nil metrics, and all
//     metric operations on nil receivers are no-ops. Disabling telemetry is
//     therefore just "don't create a registry" — the uninstrumented hot
//     path costs a single nil check (see BenchmarkCampaignNoTelemetry).
//   - Values are exposed three ways: Prometheus-style text exposition
//     (WritePrometheus), an expvar-style JSON snapshot (Snapshot), and an
//     HTTP endpoint bundling both with net/http/pprof (Serve).
//
// Metric naming follows Prometheus conventions: snake_case names,
// `_total` suffix for counters, `_seconds` for latency histograms, and
// labels for dimensions like the campaign letter or delivery result (see
// docs/observability.md for the full catalog).
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension (e.g. campaign="A", kind="activity").
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a nil *Counter is a no-op.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically updated float64. The zero value is ready to use;
// a nil *Gauge is a no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds delta (CAS loop; safe for concurrent adders).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// kind discriminates registry entries.
type kind int

const (
	kindCounter kind = iota + 1
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "unknown"
	}
}

// entry is one registered metric instance (a unique name+labels pair).
type entry struct {
	name   string
	labels []Label
	kind   kind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry holds named metrics. Get-or-create methods are safe for
// concurrent use; returned handles are cached by callers and touched with
// atomics only. A nil *Registry no-ops everywhere and hands out nil
// metrics, which are themselves no-ops.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*entry
	hooks   []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*entry)}
}

// metricKey renders the canonical identity of name+labels. Labels are
// sorted so that {a,b} and {b,a} are the same metric.
func metricKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteString(`="`)
		sb.WriteString(l.Value)
		sb.WriteString(`"`)
	}
	sb.WriteByte('}')
	return sb.String()
}

func sortLabels(labels []Label) []Label {
	if len(labels) < 2 {
		return labels
	}
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// lookup get-or-creates the entry, enforcing kind consistency. A new entry
// gets its metric value under the registry lock, so concurrent first uses
// of one name (shard registries absorbed from parallel farm workers) never
// race to create it; bounds apply to a new histogram only.
func (r *Registry) lookup(name string, k kind, bounds []float64, labels []Label) *entry {
	labels = sortLabels(labels)
	key := metricKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.metrics[key]; ok {
		if e.kind != k {
			panic(fmt.Sprintf("telemetry: %s registered as %s, requested as %s", key, e.kind, k))
		}
		return e
	}
	e := &entry{name: name, labels: labels, kind: k}
	switch k {
	case kindCounter:
		e.counter = &Counter{}
	case kindGauge:
		e.gauge = &Gauge{}
	case kindHistogram:
		e.hist = NewHistogram(bounds)
	}
	r.metrics[key] = e
	return e
}

// Counter returns the counter for name+labels, creating it on first use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, kindCounter, nil, labels).counter
}

// Gauge returns the gauge for name+labels, creating it on first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, kindGauge, nil, labels).gauge
}

// Histogram returns the histogram for name+labels, creating it with the
// given bucket upper bounds on first use (bounds are ignored on later
// lookups of the same metric). Pass nil bounds for DefLatencyBuckets.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, kindHistogram, bounds, labels).hist
}

// OnCollect registers fn to run before every exposition (WritePrometheus
// or Snapshot) — the hook refreshes gauges whose source of truth lives
// elsewhere. Hooks run outside the registry lock and may call Gauge/Set.
func (r *Registry) OnCollect(fn func()) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.hooks = append(r.hooks, fn)
	r.mu.Unlock()
}

// collect runs the registered hooks.
func (r *Registry) collect() {
	r.mu.Lock()
	hooks := append([]func(){}, r.hooks...)
	r.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
}

// entries returns a sorted snapshot of the registered metric entries.
func (r *Registry) entries() []*entry {
	r.mu.Lock()
	out := make([]*entry, 0, len(r.metrics))
	keys := make([]string, 0, len(r.metrics))
	for k := range r.metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out = append(out, r.metrics[k])
	}
	r.mu.Unlock()
	return out
}
