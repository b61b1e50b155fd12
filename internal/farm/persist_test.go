package farm

import (
	"testing"

	"repro/internal/core"
	"repro/internal/javalang"
)

// TestUnitExecutorReusesHotDevice pins the persistent executor's lifecycle
// against a real boot sequence: clone on cold start, reuse (same device,
// same fleet) while the device stays clean, retire-and-fall-back after the
// device reboots, and recover to reuse on the shard after that.
func TestUnitExecutorReusesHotDevice(t *testing.T) {
	const pkg = "com.heartwatch.wear"
	p, err := NewPlan(Config{Seed: 1, Packages: []string{pkg}})
	if err != nil {
		t.Fatal(err)
	}
	ex := p.NewExecutor()

	fleet1, dev1, src1, err := ex.boot(pkg, farmMetrics{})
	if err != nil {
		t.Fatal(err)
	}
	if src1 != BootClone {
		t.Fatalf("cold-start source = %q, want %q", src1, BootClone)
	}

	fleet2, dev2, src2, err := ex.boot(pkg, farmMetrics{})
	if err != nil {
		t.Fatal(err)
	}
	if src2 != BootReuse {
		t.Fatalf("second boot source = %q, want %q", src2, BootReuse)
	}
	if dev2 != dev1 {
		t.Fatal("reuse produced a different device")
	}
	if fleet2 != fleet1 {
		t.Fatal("reuse re-instantiated the fleet instead of rewinding it")
	}

	// A rebooted device must never be reused.
	dev2.SystemServer().RecordCoreServiceDown("sensorservice", javalang.SIGABRT)
	if !dev2.SystemServer().MaybeReboot() {
		t.Fatal("core service death did not reboot the device")
	}
	_, dev3, src3, err := ex.boot(pkg, farmMetrics{})
	if err != nil {
		t.Fatal(err)
	}
	if src3 != BootClone {
		t.Fatalf("post-reboot source = %q, want %q (retire + fallback)", src3, BootClone)
	}
	if dev3 == dev2 {
		t.Fatal("rebooted device was reused")
	}
	if dev3.BootCount() != 1 {
		t.Fatalf("fallback clone BootCount = %d, want 1", dev3.BootCount())
	}

	// The fallback clone becomes the new hot device.
	_, dev4, src4, err := ex.boot(pkg, farmMetrics{})
	if err != nil {
		t.Fatal(err)
	}
	if src4 != BootReuse || dev4 != dev3 {
		t.Fatalf("executor did not recover after retirement (source=%q)", src4)
	}
}

// TestRetiredRingAdoption: when a hot device retires after a reboot, its
// replacement adopts the logcat ring, allocated chunks included, instead of
// allocating a new one, and the shard it runs is byte-identical to a
// fresh-boot oracle's.
func TestRetiredRingAdoption(t *testing.T) {
	const pkg = "com.heartwatch.wear"
	p, err := NewPlan(Config{
		Seed: 1, Packages: []string{pkg},
		Campaigns: []core.Campaign{core.CampaignA, core.CampaignB},
		Gen:       core.GeneratorConfig{ActionStride: 2, SchemeStride: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	ex := p.NewExecutor()
	if _, err := ex.ExecuteShard(0); err != nil {
		t.Fatal(err)
	}
	hot := ex.dev
	ring := hot.Logcat()
	allocated := ring.Cap()

	hot.SystemServer().RecordCoreServiceDown("sensorservice", javalang.SIGABRT)
	if !hot.SystemServer().MaybeReboot() {
		t.Fatal("core service death did not reboot the device")
	}
	got, err := ex.ExecuteShard(1)
	if err != nil {
		t.Fatal(err)
	}
	if got.BootSource != BootClone || ex.dev == hot {
		t.Fatalf("rebooted device was not retired (source %q)", got.BootSource)
	}
	if ex.dev.Logcat() != ring {
		t.Fatal("replacement device did not adopt the retired device's ring")
	}
	// The adopted ring keeps every chunk the retired one allocated: shard 1
	// holds fewer lines than shard 0 reached, so a ring whose reset dropped
	// its chunks would show fewer slots than before.
	if n := ring.Len(); n >= allocated {
		t.Fatalf("shard 1 holds %d lines, not fewer than the %d slots shard 0 allocated", n, allocated)
	}
	if ring.Cap() != allocated {
		t.Fatalf("adopted ring has %d slots allocated after the shard, want the retired ring's %d", ring.Cap(), allocated)
	}

	UseFreshBoot(t)
	want, err := p.NewExecutor().ExecuteShard(1)
	if err != nil {
		t.Fatal(err)
	}
	gotRec, err := EncodeShardRecord(1, got)
	if err != nil {
		t.Fatal(err)
	}
	wantRec, err := EncodeShardRecord(1, want)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotRec) != string(wantRec) {
		t.Fatalf("shard on the adopted ring differs from the fresh-boot oracle:\n got: %s\nwant: %s", gotRec, wantRec)
	}
}
