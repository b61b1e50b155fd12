package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/100 collisions between independent streams", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	childA := parent.Split("fuzzer")
	childB := parent.Split("apps")
	// Children with distinct labels produce distinct streams.
	if childA.Uint64() == childB.Uint64() {
		t.Fatal("children with distinct labels produced identical first values")
	}
	// Splitting does not consume parent state: re-splitting with the same
	// label reproduces the same child stream.
	childA2 := parent.Split("fuzzer")
	childA3 := New(7).Split("fuzzer")
	childA3.Uint64() // consume the value childA already produced
	v2 := childA2.Uint64()
	v1 := New(7).Split("fuzzer").Uint64()
	if v1 != v2 {
		t.Fatalf("re-split stream diverged: %d != %d", v1, v2)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		v := s.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d out of range", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntBetweenInclusive(t *testing.T) {
	s := New(5)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := s.IntBetween(2, 4)
		if v < 2 || v > 4 {
			t.Fatalf("IntBetween(2,4) = %d", v)
		}
		seen[v] = true
	}
	for want := 2; want <= 4; want++ {
		if !seen[want] {
			t.Errorf("IntBetween(2,4) never produced %d", want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		s := New(seed)
		for i := 0; i < 50; i++ {
			f := s.Float64()
			if f < 0 || f >= 1 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBoolEdges(t *testing.T) {
	s := New(9)
	for i := 0; i < 100; i++ {
		if s.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !s.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestBoolFrequency(t *testing.T) {
	s := New(11)
	n, hits := 100000, 0
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / float64(n)
	if math.Abs(got-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency = %.4f, want ~0.30", got)
	}
}

func TestWeightedIndexDistribution(t *testing.T) {
	s := New(13)
	weights := []float64{1, 0, 3}
	counts := make([]int, 3)
	n := 100000
	for i := 0; i < n; i++ {
		counts[s.WeightedIndex(weights)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight index chosen %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.2 {
		t.Fatalf("weight ratio = %.2f, want ~3", ratio)
	}
}

func TestWeightedIndexAllZero(t *testing.T) {
	s := New(17)
	if got := s.WeightedIndex([]float64{0, 0, 0}); got != 0 {
		t.Fatalf("WeightedIndex(all zero) = %d, want 0", got)
	}
}

func TestPickCoversAllElements(t *testing.T) {
	s := New(19)
	xs := []string{"a", "b", "c", "d"}
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		seen[Pick(s, xs)] = true
	}
	if len(seen) != len(xs) {
		t.Fatalf("Pick covered %d/%d elements", len(seen), len(xs))
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	s := New(23)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	cp := append([]int(nil), xs...)
	Shuffle(s, cp)
	counts := map[int]int{}
	for _, v := range cp {
		counts[v]++
	}
	for _, v := range xs {
		if counts[v] != 1 {
			t.Fatalf("shuffle lost element %d: %v", v, cp)
		}
	}
}

func TestASCIIProperties(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		s := New(seed)
		str := s.ASCII(3, 12)
		if len(str) < 3 || len(str) > 12 {
			return false
		}
		for _, r := range str {
			if r < '!' || r > '~' {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(31)
	n := 100000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %.4f, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance = %.4f, want ~1", variance)
	}
}
