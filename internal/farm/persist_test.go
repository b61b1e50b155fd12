package farm

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/javalang"
)

// TestSnapshotCacheEvictsOneEntry is the cache-overflow regression test:
// hitting cacheLimit must evict a single resident entry, never drop the
// whole map. The old behaviour (nil the map on overflow) left exactly one
// entry after the overflowing insert; single-entry eviction keeps the map
// full.
func TestSnapshotCacheEvictsOneEntry(t *testing.T) {
	var c snapshotCache

	base := deviceConfig(apps.WearFleet)
	for i := 0; i < cacheLimit+3; i++ {
		cfg := base
		cfg.LogCapacity = 1000 + i
		if _, hit, err := c.deviceSnapshot(cfg); err != nil {
			t.Fatal(err)
		} else if hit {
			t.Fatalf("insert %d reported a hit", i)
		}
		if len(c.devs) > cacheLimit {
			t.Fatalf("device cache grew to %d entries (limit %d)", len(c.devs), cacheLimit)
		}
		if _, hit, err := c.deviceSnapshot(cfg); err != nil || !hit {
			t.Fatalf("entry %d not retained after its own insert (hit=%v err=%v)", i, hit, err)
		}
	}
	if len(c.devs) != cacheLimit {
		t.Fatalf("device cache has %d entries after overflow, want %d (single-entry eviction)",
			len(c.devs), cacheLimit)
	}

	for i := 0; i < cacheLimit+3; i++ {
		seed := uint64(1000 + i)
		if _, hit, err := c.fleetTemplate(apps.WearFleet, seed); err != nil {
			t.Fatal(err)
		} else if hit {
			t.Fatalf("insert %d reported a hit", i)
		}
		if len(c.fleets) > cacheLimit {
			t.Fatalf("fleet cache grew to %d entries (limit %d)", len(c.fleets), cacheLimit)
		}
		if _, hit, err := c.fleetTemplate(apps.WearFleet, seed); err != nil || !hit {
			t.Fatalf("entry %d not retained after its own insert (hit=%v err=%v)", i, hit, err)
		}
	}
	if len(c.fleets) != cacheLimit {
		t.Fatalf("fleet cache has %d entries after overflow, want %d (single-entry eviction)",
			len(c.fleets), cacheLimit)
	}
}

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
