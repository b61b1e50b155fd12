package wearos

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/intent"
	"repro/internal/javalang"
	"repro/internal/logcat"
	"repro/internal/manifest"
)

// snapTestPackage returns a fresh package value for install into one device;
// each call builds its own components so no state is shared between the
// devices a test compares.
func snapTestPackage() *manifest.Package {
	return &manifest.Package{
		Name:     "com.test.app",
		Category: manifest.NotHealthFitness,
		Origin:   manifest.ThirdParty,
		Components: []*manifest.Component{
			{Name: cn("com.test.app", "MainActivity"), Type: manifest.Activity, Exported: true, MainLauncher: true},
			{Name: cn("com.test.app", "Worker"), Type: manifest.Service, Exported: true},
		},
	}
}

// driveWorkload sends the same mixed intent sequence to a device: clean
// deliveries, a crash, an ANR, and a security denial — every settle path
// that writes logcat, dropbox, process table, and aging state.
func driveWorkload(t *testing.T, o *OS) {
	t.Helper()
	if err := o.InstallPackage(snapTestPackage()); err != nil {
		t.Fatal(err)
	}
	main := cn("com.test.app", "MainActivity")
	worker := cn("com.test.app", "Worker")
	o.RegisterHandler(main, func(in *intent.Intent) Outcome {
		switch in.Action {
		case "android.intent.action.EDIT":
			return Outcome{Thrown: javalang.New(javalang.ClassNullPointer, "null object reference")}
		case "android.intent.action.SEARCH":
			return Outcome{BusyFor: 6 * time.Second}
		}
		return Outcome{}
	}, ComponentTraits{})
	for _, action := range []string{
		"android.intent.action.VIEW",
		"android.intent.action.EDIT",
		"android.intent.action.SEARCH",
		"android.intent.action.VIEW",
	} {
		o.StartActivity(explicit(main, action))
	}
	o.StartService(explicit(worker, ""))
	// A denial exercises the cached gate-message path.
	o.StartActivity(explicit(cn("com.test.app", "Missing"), "android.intent.action.VIEW"))
}

// TestCloneMatchesFreshBoot is the determinism contract: a clone driven
// through a workload produces a byte-identical logcat dump — and identical
// derived state — to a freshly booted device driven identically.
func TestCloneMatchesFreshBoot(t *testing.T) {
	fresh := New(DefaultWatchConfig())

	snap, err := New(DefaultWatchConfig()).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	clone := snap.Clone()

	driveWorkload(t, fresh)
	driveWorkload(t, clone)

	if f, c := fresh.Logcat().Dump(), clone.Logcat().Dump(); f != c {
		t.Fatalf("logcat dumps diverge:\n--- fresh ---\n%s\n--- clone ---\n%s", f, c)
	}
	if f, c := fresh.BootCount(), clone.BootCount(); f != c {
		t.Fatalf("BootCount fresh=%d clone=%d", f, c)
	}
	if f, c := fresh.Clock().Now(), clone.Clock().Now(); !f.Equal(c) {
		t.Fatalf("clock fresh=%v clone=%v", f, c)
	}
	if f, c := fresh.LiveProcesses(), clone.LiveProcesses(); f != c {
		t.Fatalf("LiveProcesses fresh=%d clone=%d", f, c)
	}
	if f, c := fresh.SystemServer().Instability(), clone.SystemServer().Instability(); f != c {
		t.Fatalf("Instability fresh=%v clone=%v", f, c)
	}
	// Process identity must match too: PID allocation on the clone continued
	// from the template's allocator state.
	fp, cp := fresh.Process("com.test.app"), clone.Process("com.test.app")
	if fp == nil || cp == nil || fp.PID != cp.PID {
		t.Fatalf("process identity fresh=%+v clone=%+v", fp, cp)
	}
}

// TestBootSnapshotMatchesNewSnapshot: BootSnapshot captures the snapshot
// New(cfg).Snapshot() does, and clones of the two run identically.
func TestBootSnapshotMatchesNewSnapshot(t *testing.T) {
	eager, err := New(DefaultWatchConfig()).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := BootSnapshot(DefaultWatchConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(eager, lazy) {
		t.Fatalf("snapshots differ:\n eager %+v\n  lazy %+v", eager, lazy)
	}
	a, b := eager.Clone(), lazy.Clone()
	driveWorkload(t, a)
	driveWorkload(t, b)
	if da, db := a.Logcat().Dump(), b.Logcat().Dump(); da != db {
		t.Fatalf("clone dumps diverge:\n--- New ---\n%s\n--- BootSnapshot ---\n%s", da, db)
	}
}

// TestCloneIsolation verifies that mutating one clone leaks into neither
// the template device nor a sibling clone.
func TestCloneIsolation(t *testing.T) {
	template := New(DefaultWatchConfig())
	snap, err := template.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	baselineDump := template.Logcat().Dump()

	noisy := snap.Clone()
	quiet := snap.Clone()
	driveWorkload(t, noisy)

	if got := template.Logcat().Dump(); got != baselineDump {
		t.Fatal("mutating a clone changed the template's logcat")
	}
	if template.LiveProcesses() != 0 {
		t.Fatal("mutating a clone changed the template's process state")
	}
	if got := quiet.Logcat().Dump(); got != baselineDump {
		t.Fatal("mutating a clone changed a sibling clone's logcat")
	}
	if quiet.SystemServer().Instability() != 0 {
		t.Fatal("mutating a clone aged a sibling clone")
	}
	// The sibling stays fully usable and independent afterwards.
	driveWorkload(t, quiet)
	if quiet.Logcat().Dump() != noisy.Logcat().Dump() {
		t.Fatal("identically driven siblings diverged")
	}
}

// TestCloneBootCountAfterReboot pins the BootCount accounting satellite: a
// cloned device reports the template's boot plus its own simulated reboots,
// while the template and sibling clones stay at the template's count.
func TestCloneBootCountAfterReboot(t *testing.T) {
	template := New(DefaultWatchConfig())
	snap, err := template.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	clone := snap.Clone()
	if clone.BootCount() != 1 {
		t.Fatalf("clone BootCount = %d, want 1 (the template's boot)", clone.BootCount())
	}

	// Drive the core-service escalation (the paper's reboot mechanism): a
	// core service death pushes instability past the threshold and the next
	// MaybeReboot tears the device down.
	clone.SystemServer().RecordCoreServiceDown("sensorservice", javalang.SIGABRT)
	if !clone.SystemServer().MaybeReboot() {
		t.Fatal("core service death did not trigger a reboot")
	}
	if clone.BootCount() != 2 {
		t.Fatalf("clone BootCount after reboot = %d, want 2", clone.BootCount())
	}
	if !strings.Contains(clone.Logcat().Dump(), "boot #2") {
		t.Fatal("clone's second boot banner missing from logcat")
	}
	if template.BootCount() != 1 {
		t.Fatalf("template BootCount = %d after clone reboot, want 1", template.BootCount())
	}
	if sibling := snap.Clone(); sibling.BootCount() != 1 {
		t.Fatalf("sibling BootCount = %d, want 1", sibling.BootCount())
	}

	// A fresh device pushed through the same reboot reports the same count
	// and the same log — reboot accounting under cloning is indistinguishable
	// from fresh-boot accounting.
	fresh := New(DefaultWatchConfig())
	fresh.SystemServer().RecordCoreServiceDown("sensorservice", javalang.SIGABRT)
	if !fresh.SystemServer().MaybeReboot() {
		t.Fatal("fresh device did not reboot")
	}
	if fresh.BootCount() != clone.BootCount() {
		t.Fatalf("BootCount fresh=%d clone=%d", fresh.BootCount(), clone.BootCount())
	}
	if fresh.Logcat().Dump() != clone.Logcat().Dump() {
		t.Fatal("reboot logs diverge between fresh device and clone")
	}
}

// TestSnapshotRefusesNonQuiescent pins the invalidation rule: snapshots are
// only taken right after boot, never mid-campaign.
func TestSnapshotRefusesNonQuiescent(t *testing.T) {
	o := testDevice(t)
	if _, err := o.Snapshot(); err != nil {
		t.Fatalf("installed-but-idle device should snapshot, got %v", err)
	}

	o.StartActivity(explicit(cn("com.test.app", "MainActivity"), "android.intent.action.VIEW"))
	if _, err := o.Snapshot(); err == nil {
		t.Fatal("snapshot succeeded with a live app process")
	}

	bound := testDevice(t)
	bound.Binder().Publish("svc:com.test.app/.Worker",
		func(code int, data any) (any, *javalang.Throwable) { return data, nil })
	if _, err := bound.Snapshot(); err == nil {
		t.Fatal("snapshot succeeded with a published binder endpoint")
	}

	aborted := New(DefaultWatchConfig())
	aborted.SensorService().Abort(javalang.SIGABRT)
	if _, err := aborted.Snapshot(); err == nil {
		t.Fatal("snapshot succeeded with the sensor service down")
	}
}

// TestSnapshotCarriesInstalledPackages covers the wearos-level contract the
// farm does not use: snapshotting after installs shares the packages and
// handler tables with every clone.
func TestSnapshotCarriesInstalledPackages(t *testing.T) {
	template := New(DefaultWatchConfig())
	if err := template.InstallPackage(snapTestPackage()); err != nil {
		t.Fatal(err)
	}
	template.RegisterHandler(cn("com.test.app", "MainActivity"),
		func(in *intent.Intent) Outcome { return Outcome{} }, ComponentTraits{})
	snap, err := template.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	clone := snap.Clone()
	if clone.Registry().Package("com.test.app") == nil {
		t.Fatal("installed package missing from clone registry")
	}
	if got := clone.StartActivity(explicit(cn("com.test.app", "MainActivity"), "android.intent.action.VIEW")); got != DeliveredNoEffect {
		t.Fatalf("delivery on clone = %v", got)
	}
	if clone.Logcat().Dump() == template.Logcat().Dump() {
		t.Fatal("clone delivery did not extend its own log")
	}
}

// lineCounter is a logcat sink that counts the lines it sees.
type lineCounter struct{ n int }

func (c *lineCounter) Consume(*logcat.Entry) { c.n++ }

// TestTailRingDevice: a LogCapacity of one chunk keeps the device's ring at
// 128 lines however much it logs, with every eviction counted, and a clone
// of its snapshot and a reset of that clone keep the capacity. A subscribed
// sink, like the UI study's collector, still sees every line.
func TestTailRingDevice(t *testing.T) {
	cfg := DefaultEmulatorConfig()
	cfg.LogCapacity = logcat.ChunkCapacity
	dev := New(cfg)
	boot := dev.Logcat().Len()
	snap, err := dev.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fill := func(name string, o *OS, base int) {
		t.Helper()
		sink := &lineCounter{}
		o.Logcat().Subscribe(sink)
		defer o.Logcat().Unsubscribe(sink)
		const lines = 10000
		for i := range lines {
			o.log.Log(1000, 1000, logcat.Info, logcat.TagActivityManager, "line %d", i)
		}
		buf := o.Logcat()
		if got := buf.Cap(); got != 128 {
			t.Errorf("%s: Cap() = %d after %d lines, want 128", name, got, lines)
		}
		if got := buf.Len(); got != 128 {
			t.Errorf("%s: Len() = %d, want 128", name, got)
		}
		if got, want := buf.Dropped(), uint64(base+lines-128); got != want {
			t.Errorf("%s: Dropped() = %d, want %d", name, got, want)
		}
		if sink.n != lines {
			t.Errorf("%s: sink saw %d lines, want %d", name, sink.n, lines)
		}
	}
	fill("booted", dev, boot)

	clone := snap.Clone()
	if got := clone.Logcat().Len(); got != boot {
		t.Fatalf("clone holds %d lines, want the %d-line boot baseline", got, boot)
	}
	fill("clone", clone, boot)
	if !clone.ResetTo(snap) {
		t.Fatal("ResetTo retired a tail-ring clone")
	}
	if got := clone.Logcat().Len(); got != boot {
		t.Fatalf("reset clone holds %d lines, want the %d-line boot baseline", got, boot)
	}
	fill("reset clone", clone, boot)
}
