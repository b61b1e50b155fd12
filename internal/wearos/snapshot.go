package wearos

// Forkserver-style device snapshots. Booting a simulated device is the
// fixed cost every farm shard pays before injecting a single intent — the
// same way emulator restarts dominate Android test-generation throughput —
// so, like AFL's forkserver, the farm boots a template device once, freezes
// its post-boot state into an immutable Snapshot, and stamps out per-shard
// devices with Clone instead of re-running boot.
//
// Determinism contract: a clone is observably identical to a device freshly
// booted with the same Config. Its logcat dump, boot count, clock, PID
// allocation, aging state, and dispatch behaviour are byte-for-byte the
// same, so a farm merge built from clones is byte-identical to one built
// from fresh boots. Tests pin this (TestCloneMatchesFreshBoot and the
// farm's snapshot-vs-fresh merge equivalence test).

import (
	"fmt"
	"time"

	"repro/internal/intent"
	"repro/internal/logcat"
	"repro/internal/manifest"
	"repro/internal/sensors"
	"repro/internal/vclock"
)

// agingState is the system server's captured accumulation state.
type agingState struct {
	instability   float64
	lastDecay     time.Time
	anrByProcess  map[string]int
	startFailures map[intent.ComponentName]int
	lastCrashAt   map[string]time.Time
	lastANRAt     map[string]time.Time
	rebootPending bool
	rejuvenations int
	timeline      []InstabilitySample
}

// Snapshot is an immutable capture of a booted device. It structurally
// shares the installed packages (manifest.Package values are treated as
// read-only after template installation; interned component strings are
// write-once) and deep-copies everything mutable: the logcat baseline, the
// aging maps and the handler tables.
//
// Handlers registered before the snapshot are shared by reference across
// clones; they must not close over per-device mutable state. The farm
// avoids the question entirely by snapshotting bare devices and installing
// the shard's package (with fresh handlers) into each clone.
type Snapshot struct {
	cfg Config
	now time.Time

	bootCount   int
	dispatchSeq uint64

	baseline []logcat.Entry
	packages []*manifest.Package // install order
	perms    []string

	handlers map[intent.ComponentName]registration

	nextPID   int
	sensorPID int

	aging agingState

	// stateHash digests the template's reset-relevant state surface at
	// capture time. ResetTo recomputes the digest over the device after an
	// in-place restore and retires the device on any mismatch, so reuse can
	// never silently diverge from the template (see reset.go).
	stateHash uint64
}

// Snapshot captures the device's current state for cloning. The device must
// be quiescent — the state a device is in right after boot: no app
// processes, no published binder endpoints (their handlers are closures
// over this OS), and the sensor service running.
// A non-quiescent device returns an error; snapshotting mid-campaign is not
// a supported operation.
func (o *OS) Snapshot() (*Snapshot, error) {
	if n := len(o.procs.byName); n != 0 {
		return nil, fmt.Errorf("wearos: snapshot of non-quiescent device: %d app processes", n)
	}
	if n := o.router.Endpoints(); n != 0 {
		return nil, fmt.Errorf("wearos: snapshot of non-quiescent device: %d binder endpoints", n)
	}
	if st := o.sensor.State(); st != sensors.ServiceRunning {
		return nil, fmt.Errorf("wearos: snapshot of non-quiescent device: sensor service %v", st)
	}

	s := &Snapshot{
		cfg:         o.cfg,
		now:         o.clock.Now(),
		bootCount:   o.bootCount,
		dispatchSeq: o.dispatchSeq,
		baseline:    o.buf.Snapshot(),
		packages:    o.reg.Packages(),
		perms:       o.perms.List(),
		handlers:    copyMap(o.handlers),
		nextPID:     o.procs.nextPID,
		sensorPID:   o.sensor.PID(),
		aging: agingState{
			instability:   o.sysSrv.instability,
			lastDecay:     o.sysSrv.lastDecay,
			anrByProcess:  copyMap(o.sysSrv.anrByProcess),
			startFailures: copyMap(o.sysSrv.startFailures),
			lastCrashAt:   copyMap(o.sysSrv.lastCrashAt),
			lastANRAt:     copyMap(o.sysSrv.lastANRAt),
			rebootPending: o.sysSrv.rebootPending,
			rejuvenations: o.sysSrv.rejuvenations,
			timeline:      append([]InstabilitySample(nil), o.sysSrv.timeline...),
		},
	}
	s.stateHash = o.resetStateHash()
	return s, nil
}

// Clone stamps out a fresh device from the snapshot without re-running
// boot. The clone shares the snapshot's package structures and gets its own
// copies of every mutable piece: clock, logcat ring (of the Config's
// LogCapacity, seeded with the boot baseline, its chunks allocated as lines
// reach them), process table, aging state, and telemetry registry. Clones
// are fully independent of the snapshot and of each other. Safe to call
// concurrently.
func (s *Snapshot) Clone() *OS {
	buf := logcat.NewBuffer(s.cfg.LogCapacity)
	buf.Restore(s.baseline)
	return s.clone(buf)
}

// CloneReplacing is Clone for a device that replaces retired, a device of
// the snapshot's Config that the caller discards: the clone adopts
// retired's logcat ring, allocated chunks included, instead of allocating a
// new one. Retention depends only on the ring's capacity, so an adopted
// ring is observably identical to a fresh one (logcat.Buffer.ResetRetain).
// retired must not be used afterwards. A nil retired, or one built from
// another Config, clones exactly as Clone does.
func (s *Snapshot) CloneReplacing(retired *OS) *OS {
	if retired == nil || retired.cfg != s.cfg {
		return s.Clone()
	}
	buf := retired.buf
	retired.buf = nil
	buf.ResetRetain(s.baseline)
	return s.clone(buf)
}

// clone builds the snapshot's device around buf, a ring holding exactly the
// boot baseline.
func (s *Snapshot) clone(buf *logcat.Buffer) *OS {
	o := newKernel(s.cfg, vclock.NewVirtual(s.now), buf)
	o.restore(s)
	return o
}

// copyMap returns a shallow copy of m.
func copyMap[K comparable, V any](m map[K]V) map[K]V {
	out := make(map[K]V, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
