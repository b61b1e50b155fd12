package wearos

import (
	"strings"
	"testing"
	"time"

	"repro/internal/javalang"
	"repro/internal/manifest"
	"repro/internal/sensors"
)

// dirtyDevice drives a device through every mutable subsystem ResetTo must
// rewind: the workload's logcat/process/aging churn, plus a binder
// endpoint and a transaction, sensor listeners and a fault mode, a storage
// fault and a dropbox filing it loses, and a late package install.
func dirtyDevice(t *testing.T, o *OS) {
	t.Helper()
	driveWorkload(t, o)
	if o.Process("com.test.app") == nil {
		t.Fatal("workload left no live app process")
	}
	o.Binder().Publish("svc:com.test.app/.Worker",
		func(code int, data any) (any, *javalang.Throwable) { return data, nil })
	if _, thr := o.Binder().Transact("svc:com.test.app/.Worker", 0, nil); thr != nil {
		t.Fatalf("transact failed: %v", thr)
	}
	if thr := o.SensorService().Register("com.test.app", sensors.HeartRate); thr != nil {
		t.Fatalf("sensor register failed: %v", thr)
	}
	o.SensorService().SetFaultMode(sensors.FaultStall)
	o.SensorService().Read("com.test.app", sensors.HeartRate)
	o.SetStorageFault(func() *javalang.Throwable {
		return javalang.New(javalang.ClassIllegalState, "disk full")
	})
	o.FileDropBox("system_app_crash", "com.test.app")
	o.Clock().Advance(3 * time.Second)
	extra := &manifest.Package{
		Name: "com.test.extra", Origin: manifest.ThirdParty,
		Category: manifest.NotHealthFitness,
		Components: []*manifest.Component{
			{Name: cn("com.test.extra", "Main"), Type: manifest.Activity, Exported: true},
		},
	}
	if err := o.InstallPackage(extra); err != nil {
		t.Fatal(err)
	}
}

// TestResetMatchesClone is the persistent-mode equivalence contract: a
// device dirtied through every subsystem and then ResetTo its snapshot is
// observably identical to a fresh clone — same logcat under an identical
// follow-up workload, same derived state, same process identity.
func TestResetMatchesClone(t *testing.T) {
	template := New(DefaultWatchConfig())
	snap, err := template.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	reused := snap.Clone()
	dirtyDevice(t, reused)
	if !reused.ResetTo(snap) {
		t.Fatal("ResetTo reported retirement for a non-rebooted device")
	}

	fresh := snap.Clone()
	if r, f := reused.Logcat().Dump(), fresh.Logcat().Dump(); r != f {
		t.Fatalf("post-reset logcat differs from fresh clone:\n--- reset ---\n%s\n--- clone ---\n%s", r, f)
	}

	driveWorkload(t, reused)
	driveWorkload(t, fresh)
	if r, f := reused.Logcat().Dump(), fresh.Logcat().Dump(); r != f {
		t.Fatalf("driven logcat diverges:\n--- reset ---\n%s\n--- clone ---\n%s", r, f)
	}
	if r, f := reused.BootCount(), fresh.BootCount(); r != f {
		t.Fatalf("BootCount reset=%d clone=%d", r, f)
	}
	if r, f := reused.Clock().Now(), fresh.Clock().Now(); !r.Equal(f) {
		t.Fatalf("clock reset=%v clone=%v", r, f)
	}
	if r, f := reused.LiveProcesses(), fresh.LiveProcesses(); r != f {
		t.Fatalf("LiveProcesses reset=%d clone=%d", r, f)
	}
	if r, f := reused.SystemServer().Instability(), fresh.SystemServer().Instability(); r != f {
		t.Fatalf("Instability reset=%v clone=%v", r, f)
	}
	if reused.StorageDropped() != 0 {
		t.Fatalf("StorageDropped = %d after reset, want 0", reused.StorageDropped())
	}
	rp, fp := reused.Process("com.test.app"), fresh.Process("com.test.app")
	if rp == nil || fp == nil || rp.PID != fp.PID {
		t.Fatalf("process identity reset=%+v clone=%+v", rp, fp)
	}
	if reused.Registry().Package("com.test.extra") != nil {
		t.Fatal("late-installed package survived the reset")
	}
	if got := reused.SensorService().FaultMode(); got != sensors.FaultNone {
		t.Fatalf("sensor fault mode = %v after reset, want FaultNone", got)
	}
}

// TestResetRepeatedReuse drives several reset cycles on one device — the
// farm's steady state — asserting each cycle stays byte-identical to the
// first. Any state leak compounds across cycles, so three reuses catch
// drifts a single reset would hide.
func TestResetRepeatedReuse(t *testing.T) {
	snap, err := New(DefaultWatchConfig()).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	dev := snap.Clone()
	var want string
	for cycle := 0; cycle < 3; cycle++ {
		dirtyDevice(t, dev)
		got := dev.Logcat().Dump()
		if cycle == 0 {
			want = got
		} else if got != want {
			t.Fatalf("cycle %d logcat diverged from cycle 0:\n--- cycle 0 ---\n%s\n--- cycle %d ---\n%s",
				cycle, want, cycle, got)
		}
		if !dev.ResetTo(snap) {
			t.Fatalf("cycle %d: ResetTo retired the device", cycle)
		}
	}
}

// TestResetRetiresRebootedDevice pins the first retirement rule: a device
// whose boot count advanced past the template's is never reused.
func TestResetRetiresRebootedDevice(t *testing.T) {
	snap, err := New(DefaultWatchConfig()).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	dev := snap.Clone()
	dev.SystemServer().RecordCoreServiceDown("sensorservice", javalang.SIGABRT)
	if !dev.SystemServer().MaybeReboot() {
		t.Fatal("core service death did not reboot the device")
	}
	if dev.ResetTo(snap) {
		t.Fatal("ResetTo reused a rebooted device")
	}
	// Retirement falls back to a clone; the clone must be unaffected by the
	// retired device's history.
	if fb := snap.Clone(); fb.BootCount() != 1 || strings.Contains(fb.Logcat().Dump(), "boot #2") {
		t.Fatal("fallback clone inherited the retired device's reboot")
	}
}

// TestResetRetiresOnConfigMismatch pins the second retirement rule: a
// device built from a different Config never resets onto a foreign
// snapshot.
func TestResetRetiresOnConfigMismatch(t *testing.T) {
	snap, err := New(DefaultWatchConfig()).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	other := DefaultWatchConfig()
	other.DisableTelemetry = true
	if New(other).ResetTo(snap) {
		t.Fatal("ResetTo accepted a device built from a different Config")
	}
}

// TestResetHashTripwire pins the catch-all retirement rule: any
// disagreement between the post-restore state hash and the one captured at
// Snapshot time retires the device, even when the structured checks pass.
func TestResetHashTripwire(t *testing.T) {
	snap, err := New(DefaultWatchConfig()).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	dev := snap.Clone()
	tampered := *snap
	tampered.stateHash ^= 1
	if dev.ResetTo(&tampered) {
		t.Fatal("ResetTo accepted a snapshot whose state hash cannot match")
	}
	// The same device resets fine against the genuine snapshot: the tripwire
	// leaves a clean device reusable.
	if !dev.ResetTo(snap) {
		t.Fatal("device unusable after a tripwire rejection")
	}
}
