package telemetry

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_total", L("campaign", "A"))
	const goroutines, perG = 16, 10000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
}

func TestCounterHandleIdentity(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", L("k", "1"))
	b := reg.Counter("x_total", L("k", "1"))
	if a != b {
		t.Fatal("same name+labels must return the same counter")
	}
	c := reg.Counter("x_total", L("k", "2"))
	if a == c {
		t.Fatal("different labels must return distinct counters")
	}
	// Label order must not matter.
	d := reg.Counter("y_total", L("a", "1"), L("b", "2"))
	e := reg.Counter("y_total", L("b", "2"), L("a", "1"))
	if d != e {
		t.Fatal("label order must not create distinct metrics")
	}
}

// TestConcurrentFirstUse: goroutines that look up the same new metric at
// once (parallel farm workers absorbing their shard registries) must all
// get the one handle, with no race on its creation.
func TestConcurrentFirstUse(t *testing.T) {
	reg := NewRegistry()
	const goroutines = 16
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reg.Counter("first_total").Inc()
			reg.Gauge("first_gauge").Add(1)
			reg.Histogram("first_seconds").Observe(0.5)
		}()
	}
	wg.Wait()
	if got := reg.Counter("first_total").Value(); got != goroutines {
		t.Fatalf("counter = %d, want %d", got, goroutines)
	}
	if got := reg.Snapshot().Histograms["first_seconds"].Count; got != goroutines {
		t.Fatalf("histogram count = %d, want %d", got, goroutines)
	}
}

func TestGaugeConcurrentAdd(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("test_gauge")
	const goroutines, perG = 8, 5000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != goroutines*perG {
		t.Fatalf("gauge = %v, want %d", got, goroutines*perG)
	}
	g.Set(-3.5)
	if got := g.Value(); got != -3.5 {
		t.Fatalf("gauge after Set = %v", got)
	}
}

func TestNilRegistryAndMetricsNoop(t *testing.T) {
	var reg *Registry
	c := reg.Counter("a_total")
	g := reg.Gauge("b")
	h := reg.Histogram("c_seconds")
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	StartTimer(h).Stop()
	reg.OnCollect(func() { t.Fatal("hook on nil registry must not run") })
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil metrics must stay zero")
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil registry exposition: %q, %v", sb.String(), err)
	}
	if s := reg.Snapshot(); s.Counters != nil || s.Gauges != nil || s.Histograms != nil {
		t.Fatal("nil registry snapshot must be empty")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dual")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	reg.Gauge("dual")
}

func TestOnCollectRefreshesGauges(t *testing.T) {
	reg := NewRegistry()
	source := 0
	reg.OnCollect(func() { reg.Gauge("derived").Set(float64(source)) })
	source = 42
	s := reg.Snapshot()
	if s.Gauges["derived"] != 42 {
		t.Fatalf("collect hook did not refresh gauge: %v", s.Gauges)
	}
	source = 43
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "derived 43") {
		t.Fatalf("exposition missing refreshed gauge:\n%s", sb.String())
	}
}
