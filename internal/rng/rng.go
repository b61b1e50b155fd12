// Package rng implements a deterministic, splittable pseudo-random source
// used by every stochastic part of the reproduction (fuzz generators, app
// validation profiles, Monkey event streams).
//
// Determinism matters here for two reasons: the experiment tables in the
// paper must be regenerable bit-for-bit from a seed, and the synthetic app
// fleet must behave identically across runs so that calibration tests are
// stable. The generator is SplitMix64, which is small, fast, and has
// well-understood statistical quality for simulation workloads.
package rng

import (
	"hash/fnv"
	"math"
)

// Source is a deterministic PRNG stream. The zero value is a valid stream
// seeded with zero, but callers normally use New or Split so that distinct
// subsystems draw from independent streams.
//
// Source is NOT safe for concurrent use; split one stream per goroutine.
type Source struct {
	state uint64
}

// New returns a source seeded with seed.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Split derives an independent child stream from the parent stream and a
// label. Splitting does not disturb the parent's sequence, so adding a new
// consumer with a fresh label never perturbs existing consumers — a property
// the calibration tests rely on.
func (s *Source) Split(label string) *Source {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label))
	return &Source{state: mix(s.state ^ h.Sum64())}
}

// State returns the stream's internal position for a later Restore. The
// persistent-mode reset path records a behaviour stream's post-sample
// position once and rewinds to it between campaign units instead of
// resampling the whole fleet.
func (s *Source) State() uint64 { return s.state }

// Restore rewinds the stream to a position previously returned by State.
func (s *Source) Restore(state uint64) { s.state = state }

// Uint64 returns the next 64 pseudo-random bits (SplitMix64 step).
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	return mix(s.state)
}

func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0, mirroring
// math/rand semantics; all call sites pass validated constants.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// IntBetween returns a uniform int in [lo, hi] inclusive. It panics if
// hi < lo.
func (s *Source) IntBetween(lo, hi int) int {
	if hi < lo {
		panic("rng: IntBetween with hi < lo")
	}
	return lo + s.Intn(hi-lo+1)
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p (clamped to [0, 1]).
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// NormFloat64 returns a normally distributed float64 with mean 0 and
// standard deviation 1, using the Box-Muller transform.
func (s *Source) NormFloat64() float64 {
	// Avoid log(0) by nudging u1 away from zero.
	u1 := s.Float64()
	if u1 < 1e-12 {
		u1 = 1e-12
	}
	u2 := s.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Pick returns a uniformly chosen element of xs. It panics on an empty
// slice; all call sites guarantee non-empty catalogs.
func Pick[T any](s *Source, xs []T) T {
	return xs[s.Intn(len(xs))]
}

// Shuffle permutes xs in place (Fisher-Yates).
func Shuffle[T any](s *Source, xs []T) {
	for i := len(xs) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// WeightedIndex returns an index into weights with probability proportional
// to the weight. Zero and negative weights never win. If all weights are
// non-positive it returns 0.
func (s *Source) WeightedIndex(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return 0
	}
	x := s.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		if x < w {
			return i
		}
		x -= w
	}
	return len(weights) - 1
}

// asciiPrintable spans the printable ASCII range used for random string
// mutation; it intentionally includes shell-hostile characters like $, @ and
// quotes because QGJ-UI's random mode feeds strings to adb shell utilities.
const asciiPrintable = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789" +
	"!#$%&'()*+,-./:;<=>?@[]^_`{|}~"

// ASCII returns a random printable-ASCII string with length uniform in
// [minLen, maxLen].
func (s *Source) ASCII(minLen, maxLen int) string {
	var buf [32]byte
	return string(s.AppendASCII(buf[:0], minLen, maxLen))
}

// AppendASCII appends what ASCII(minLen, maxLen) returns to dst, drawing
// exactly as ASCII does.
func (s *Source) AppendASCII(dst []byte, minLen, maxLen int) []byte {
	n := s.IntBetween(minLen, maxLen)
	for range n {
		dst = append(dst, asciiPrintable[s.Intn(len(asciiPrintable))])
	}
	return dst
}
