// Package vclock provides a deterministic virtual clock used to drive the
// simulated Android Wear device and the fuzzing campaigns.
//
// The paper paces injections with wall-clock delays (100 ms between intents,
// 250 ms after every 100 intents) and several OS mechanisms are time based
// (ANR watchdog timeouts, software-aging decay). Running ~1.5M intents in
// real time would take days, so every time-dependent part of the simulator
// reads time through the Clock interface and tests/experiments plug in a
// Virtual clock whose time advances only when the simulation sleeps.
package vclock

import (
	"container/heap"
	"time"
)

// Clock is the minimal time source used throughout the simulator.
type Clock interface {
	// Now returns the current instant.
	Now() time.Time
	// Sleep advances time by d (virtually or in real time).
	Sleep(d time.Duration)
}

// Epoch is the default start instant for virtual clocks. The concrete value
// is arbitrary but fixed so that log output is reproducible.
var Epoch = time.Date(2017, time.June, 1, 9, 0, 0, 0, time.UTC)

// Virtual is a manually advanced clock with support for scheduled callbacks.
// The zero value is not usable; construct with NewVirtual.
//
// Virtual is not safe for concurrent use: a device's clock is owned by the
// goroutine that drives the device, and callbacks fire synchronously on it
// when it advances time, which keeps the whole simulation deterministic and
// single threaded. (The device reads it on every log line, so an
// uncontended lock would still cost a visible share of dispatch.)
type Virtual struct {
	now    time.Time
	seq    int64
	timers timerHeap
}

var _ Clock = (*Virtual)(nil)

// NewVirtual returns a virtual clock starting at start. If start is the zero
// time, Epoch is used.
func NewVirtual(start time.Time) *Virtual {
	if start.IsZero() {
		start = Epoch
	}
	return &Virtual{now: start}
}

// Reset rewinds the clock to start (Epoch if start is zero), dropping
// every scheduled timer and the timer sequence counter. The clock ends in
// the exact state NewVirtual(start) constructs; the persistent-mode device
// reset uses it to reuse the clock allocation across campaign units.
func (v *Virtual) Reset(start time.Time) {
	if start.IsZero() {
		start = Epoch
	}
	v.now = start
	v.seq = 0
	for i := range v.timers {
		v.timers[i] = nil
	}
	v.timers = v.timers[:0]
}

// Now returns the current virtual instant.
func (v *Virtual) Now() time.Time { return v.now }

// Sleep advances virtual time by d, firing any timers that become due, in
// order. Negative or zero durations only fire timers already due.
func (v *Virtual) Sleep(d time.Duration) { v.Advance(d) }

// Advance moves the clock forward by d and fires due timers in timestamp
// order (FIFO among equal timestamps).
func (v *Virtual) Advance(d time.Duration) {
	if d < 0 {
		d = 0
	}
	v.runUntil(v.now.Add(d))
}

// AdvanceTo moves the clock forward to the instant t (no-op if t is in the
// past) and fires due timers.
func (v *Virtual) AdvanceTo(t time.Time) { v.runUntil(t) }

// Schedule registers fn to run when the clock reaches now+delay. It returns
// a cancel function; cancelling after the timer fired is a no-op. A
// non-positive delay fires on the next Advance/Sleep call.
func (v *Virtual) Schedule(delay time.Duration, fn func(now time.Time)) (cancel func()) {
	if delay < 0 {
		delay = 0
	}
	v.seq++
	t := &timer{at: v.now.Add(delay), seq: v.seq, fn: fn}
	heap.Push(&v.timers, t)
	return func() { t.cancelled = true }
}

// Pending reports the number of timers that have been scheduled but not yet
// fired or cancelled.
func (v *Virtual) Pending() int {
	n := 0
	for _, t := range v.timers {
		if !t.cancelled {
			n++
		}
	}
	return n
}

func (v *Virtual) runUntil(target time.Time) {
	for {
		if target.After(v.now) {
			// Nothing due before target? Jump straight to target.
			if len(v.timers) == 0 || v.timers[0].at.After(target) {
				v.now = target
				return
			}
			t := heap.Pop(&v.timers).(*timer)
			if t.at.After(v.now) {
				v.now = t.at
			}
			if !t.cancelled {
				t.fn(t.at)
			}
			continue
		}
		// target <= now: fire timers that are already due.
		if len(v.timers) == 0 || v.timers[0].at.After(v.now) {
			return
		}
		t := heap.Pop(&v.timers).(*timer)
		if !t.cancelled {
			t.fn(t.at)
		}
	}
}

type timer struct {
	at        time.Time
	seq       int64
	fn        func(time.Time)
	cancelled bool
}

type timerHeap []*timer

func (h timerHeap) Len() int { return len(h) }

func (h timerHeap) Less(i, j int) bool {
	if h[i].at.Equal(h[j].at) {
		return h[i].seq < h[j].seq
	}
	return h[i].at.Before(h[j].at)
}

func (h timerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *timerHeap) Push(x any) { *h = append(*h, x.(*timer)) }

func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

// System is a Clock backed by the real time package. It is used by the CLI
// tools when running against wall-clock pacing.
type System struct{}

var _ Clock = System{}

// Now returns time.Now().
func (System) Now() time.Time { return time.Now() }

// Sleep calls time.Sleep(d).
func (System) Sleep(d time.Duration) { time.Sleep(d) }
