package wearos

// Persistent-mode device reset. Clone stamps out a new device per campaign
// unit; ResetTo instead rewinds an existing device back to its snapshot
// template in place, reusing every large allocation a clone would re-make
// (the logcat ring, the registry/router/process-table maps, the clock).
// The farm's persistent executor keeps one hot device per worker and
// resets it between shards, AFL-persistent-mode style.
//
// Correctness never depends on reuse succeeding: ResetTo reports false when
// the device cannot be proven equivalent to a fresh clone, and the caller
// retires it and falls back to Clone. Retirement triggers:
//
//   - the device was built from a different Config than the snapshot;
//   - the device rebooted since it was cloned (boot count advanced) — the
//     reboot's log lines, PID churn, and aging resets make an in-place
//     rewind more fragile than a fresh clone is expensive;
//   - the post-restore state hash disagrees with the hash captured at
//     Snapshot time — the catch-all tripwire for any state surface a future
//     subsystem adds without teaching the reset about it.

import (
	"math"

	"repro/internal/telemetry"
)

// resetStateHash digests the reset-relevant state surface: every cheap
// scalar and count that distinguishes a just-cloned device from one that has
// run a campaign. It is an FNV-1a-style fold — not cryptographic, just
// sensitive enough that a forgotten field in ResetTo trips the equivalence
// check instead of silently leaking state between campaign units.
func (o *OS) resetStateHash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		h = (h ^ v) * prime64
	}
	bit := func(v bool) uint64 {
		if v {
			return 1
		}
		return 0
	}

	mix(uint64(o.bootCount))
	mix(o.dispatchSeq)

	mix(uint64(o.clock.Now().UnixNano()))

	mix(uint64(o.buf.Len()))
	mix(o.buf.Dropped())

	mix(uint64(o.reg.Count()))
	mix(uint64(o.perms.Count()))
	mix(uint64(len(o.handlers)))

	mix(uint64(o.procs.nextPID))
	mix(uint64(len(o.procs.byName)))

	mix(uint64(o.sensor.PID()))
	mix(uint64(o.sensor.State()))
	mix(uint64(o.sensor.FaultMode()))
	stalled, stale := o.sensor.FaultStats()
	mix(stalled)
	mix(stale)

	mix(uint64(o.router.Endpoints()))

	mix(o.storageDropped)

	mix(math.Float64bits(o.sysSrv.instability))
	mix(uint64(o.sysSrv.lastDecay.UnixNano()))
	mix(uint64(len(o.sysSrv.anrByProcess)))
	mix(uint64(len(o.sysSrv.startFailures)))
	mix(uint64(len(o.sysSrv.lastCrashAt)))
	mix(uint64(len(o.sysSrv.lastANRAt)))
	mix(bit(o.sysSrv.rebootPending))
	mix(uint64(o.sysSrv.rejuvenations))
	mix(uint64(len(o.sysSrv.timeline)))

	for r := range o.dispatchPending {
		mix(uint64(o.dispatchPending[r]))
	}

	// Attached-hook surface: a leftover fault hook or recorder would replay
	// a previous unit's instrumentation into the next one.
	mix(bit(o.faultHooks.Pre != nil))
	mix(bit(o.faultHooks.Post != nil))
	mix(o.faultNext)
	mix(bit(o.storageFault != nil))
	mix(bit(o.rec != nil))

	return h
}

// ResetTo rewinds the device in place to the snapshot's state and reports
// whether the reset produced a device observably identical to s.Clone().
// On false the device must be retired — its state is unspecified — and the
// caller falls back to a fresh clone; the device itself is never left
// half-reset in a way that matters, because nothing reads it after
// retirement.
//
// The reset restores every mutable subsystem Clone would build: clock,
// logcat ring (allocated chunks retained), telemetry registry, binder router,
// process table, sensor service, package/permission registries, handler
// tables, and the system server's aging state. The final state
// hash comparison against the value captured at Snapshot time is the
// equivalence proof.
func (o *OS) ResetTo(s *Snapshot) bool {
	if o.cfg != s.cfg {
		return false
	}
	if o.bootCount != s.bootCount {
		// The device rebooted since it was cloned; retire it rather than
		// unwinding a reboot's worth of divergence.
		return false
	}

	o.clock.Reset(s.now)
	o.buf.ResetRetain(s.baseline)

	// Fresh telemetry per unit, mirroring newKernel: campaign metrics must
	// start from zero, not accumulate across reuses. When the device runs
	// with telemetry disabled and nothing was attached since the last reset
	// (the farm's steady state), every handle is already nil and the re-arm
	// — the only allocation in the reset path — is skipped.
	if !o.cfg.DisableTelemetry || o.tel != nil {
		if !o.cfg.DisableTelemetry {
			o.tel = telemetry.NewRegistry()
		} else {
			o.tel = nil
		}
		o.osm = newOSMetrics(o.tel)
		o.router.SetTelemetry(o.tel)
		o.buf.SetTelemetry(o.tel)
	}
	o.router.Reset()

	// Detach per-unit instrumentation; the next campaign attaches its own.
	o.rec = nil
	o.faultHooks, o.faultNext = FaultHooks{}, 0
	o.storageFault = nil
	o.storageDropped = 0
	o.dispatchPending = [DeviceRebooted + 1]uint32{}

	o.restore(s)
	return o.resetStateHash() == s.stateHash
}

// restore makes the device's process table, sensor service, registries,
// handler tables, boot identity and aging state those of the
// snapshot, reusing the device's allocations. It is the whole of a clone
// after newKernel, and the shared tail of ResetTo.
func (o *OS) restore(s *Snapshot) {
	// Align identity allocation with the template: a fresh kernel consumed
	// one PID for the sensor service; rewind to the template's allocator
	// state and sensor PID so post-restore PID sequences match a fresh boot
	// exactly.
	clear(o.procs.byName)
	o.procs.nextPID = s.nextPID
	o.sensor.ResetRestart(s.sensorPID)

	o.reg.Clear()
	for _, pkg := range s.packages {
		// Install silently: the template's install log lines are already in
		// the restored baseline. The packages were validated when the
		// template installed them, so an error here is a programming bug.
		if err := o.reg.Install(pkg); err != nil {
			panic("wearos: snapshot re-install: " + err.Error())
		}
	}
	o.perms.Reset(s.perms)

	restoreMap(o.handlers, s.handlers)
	o.memo = dispatchMemo{}

	o.bootCount = s.bootCount
	o.dispatchSeq = s.dispatchSeq

	o.sysSrv.instability = s.aging.instability
	o.sysSrv.lastDecay = s.aging.lastDecay
	restoreMap(o.sysSrv.anrByProcess, s.aging.anrByProcess)
	restoreMap(o.sysSrv.startFailures, s.aging.startFailures)
	restoreMap(o.sysSrv.lastCrashAt, s.aging.lastCrashAt)
	restoreMap(o.sysSrv.lastANRAt, s.aging.lastANRAt)
	o.sysSrv.rebootPending = s.aging.rebootPending
	o.sysSrv.rejuvenations = s.aging.rejuvenations
	o.sysSrv.timeline = append(o.sysSrv.timeline[:0], s.aging.timeline...)

	o.osm.bootCount.Set(float64(o.bootCount))
}

// restoreMap makes dst hold exactly src's contents, reusing dst's
// allocation.
func restoreMap[K comparable, V any](dst, src map[K]V) {
	clear(dst)
	for k, v := range src {
		dst[k] = v
	}
}
