// Package vclock provides a deterministic virtual clock used to drive the
// simulated Android Wear device and the fuzzing campaigns.
//
// The paper paces injections with wall-clock delays (100 ms between intents,
// 250 ms after every 100 intents) and several OS mechanisms are time based
// (ANR watchdog timeouts, software-aging decay). Running ~1.5M intents in
// real time would take days, so every time-dependent part of the simulator
// reads a Virtual clock whose time advances only when the simulation says so.
package vclock

import "time"

// Epoch is the default start instant for virtual clocks. The concrete value
// is arbitrary but fixed so that log output is reproducible.
var Epoch = time.Date(2017, time.June, 1, 9, 0, 0, 0, time.UTC)

// Virtual is a manually advanced clock. The zero value is not usable;
// construct with NewVirtual.
//
// Virtual is not safe for concurrent use: a device's clock is owned by the
// goroutine that drives the device, which keeps the whole simulation
// deterministic and single threaded. (The device reads it on every log
// line, so an uncontended lock would still cost a visible share of
// dispatch.)
type Virtual struct {
	now time.Time
}

// NewVirtual returns a virtual clock starting at start. If start is the zero
// time, Epoch is used.
func NewVirtual(start time.Time) *Virtual {
	if start.IsZero() {
		start = Epoch
	}
	return &Virtual{now: start}
}

// Reset rewinds the clock to start (Epoch if start is zero), the exact state
// NewVirtual(start) constructs; the persistent-mode device reset uses it to
// reuse the clock allocation across campaign units.
func (v *Virtual) Reset(start time.Time) {
	if start.IsZero() {
		start = Epoch
	}
	v.now = start
}

// Now returns the current virtual instant.
func (v *Virtual) Now() time.Time { return v.now }

// Advance moves the clock forward by d; a negative d is a no-op.
func (v *Virtual) Advance(d time.Duration) {
	if d > 0 {
		v.now = v.now.Add(d)
	}
}
