package farm_test

import (
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/farm"
	"repro/internal/telemetry"
)

func agingConfig() farm.Config {
	return farm.Config{Seed: 1, Packages: testPackages, Gen: testGen(), Aging: farm.PaperAging()}
}

// TestAgingPlanRunsOneAgingDevice: an aging plan dispatches in plan order
// on one device that is never reset, hands that device back, never
// triages (agingConfig leaves DisableTriage unset), and leaves the persist
// counters (which describe resets and clones) untouched.
func TestAgingPlanRunsOneAgingDevice(t *testing.T) {
	cfg := agingConfig()
	p, err := farm.NewPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, idx := range p.Order() {
		if idx != i {
			t.Fatalf("aging order = %v, want plan order", p.Order())
		}
	}

	reg := telemetry.NewRegistry()
	cfg.Telemetry = reg
	var keys []farm.ShardKey
	cfg.Progress = func(done, total int, key farm.ShardKey, sentSoFar int) { keys = append(keys, key) }
	res, err := farm.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(keys, p.Shards()) {
		t.Fatalf("units ran as %v, want plan order %v", keys, p.Shards())
	}
	if res.Device == nil || res.Device.Telemetry() != reg {
		t.Fatal("aging run returned no device metered into the plan's registry")
	}
	if res.Workers != 1 || res.Sent == 0 {
		t.Fatalf("workers = %d, sent = %d", res.Workers, res.Sent)
	}
	if res.Triage != nil {
		t.Fatal("an aging plan triaged its crashes; it never does")
	}
	snap := reg.Snapshot()
	if got := snap.Counters["farm_shards_done_total"]; got != uint64(res.Shards) {
		t.Fatalf("farm_shards_done_total = %d, want %d", got, res.Shards)
	}
	for name, v := range snap.Counters {
		if v != 0 && strings.HasPrefix(name, "farm_persist_") {
			t.Errorf("%s = %d on an aging run, want 0", name, v)
		}
	}

	shard := agingConfig()
	shard.Aging = nil
	sres, err := farm.Run(shard)
	if err != nil {
		t.Fatal(err)
	}
	if sres.Device != nil {
		t.Fatal("a shard plan returned a device")
	}
}

// TestAgingPlanMetersIntoFarmRegistry: an aging plan's device and its
// units' collectors meter into Config.Telemetry, so the paper's own mode
// exposes the device, fuzzer and analysis families a sharded run does, with
// counts that agree with the result. At this scale com.motorola.omni's
// campaign A reboots the watch, and campaign B runs on the aged device.
func TestAgingPlanMetersIntoFarmRegistry(t *testing.T) {
	reg := telemetry.NewRegistry()
	res, err := farm.Run(farm.Config{
		Seed:      1,
		Packages:  []string{"com.heartwatch.wear", "com.motorola.omni"},
		Campaigns: []core.Campaign{core.CampaignA, core.CampaignB},
		Gen:       experiments.QuickGen(3),
		Aging:     farm.PaperAging(),
		Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reboots() == 0 {
		t.Fatal("the plan never rebooted the watch; the reboot counters check nothing")
	}
	snap := reg.Snapshot()
	for _, name := range []string{"wearos_reboots_total", "analysis_reboots_total"} {
		if got := snap.Counters[name]; got != uint64(res.Reboots()) {
			t.Errorf("%s = %d, want res.Reboots() = %d", name, got, res.Reboots())
		}
	}
	var injected uint64
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "qgj_intents_injected_total{") {
			injected += v
		}
	}
	if injected != uint64(res.Sent) {
		t.Errorf("qgj_intents_injected_total sums to %d, want res.Sent = %d", injected, res.Sent)
	}
	if got := snap.Counters["farm_intents_total"]; got != uint64(res.Sent) {
		t.Errorf("farm_intents_total = %d, want res.Sent = %d", got, res.Sent)
	}
}

func TestAgingPlanRejectsCampaignF(t *testing.T) {
	cfg := agingConfig()
	cfg.Campaigns = []core.Campaign{core.CampaignA, core.CampaignF}
	if _, err := farm.Run(cfg); err == nil || !strings.Contains(err.Error(), "campaign F") {
		t.Fatalf("err = %v, want an aging plan to refuse campaign F", err)
	}
}

func TestAgingPlanRejectsCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "aging.ckpt")
	for _, sh := range []core.Sharding{{Checkpoint: path}, {Checkpoint: path, Resume: true}, {Resume: true}} {
		cfg := agingConfig()
		cfg.Sharding = sh
		if _, err := farm.Run(cfg); err == nil || !strings.Contains(err.Error(), "checkpoint") {
			t.Fatalf("%+v: err = %v, want an aging plan to refuse a checkpoint", sh, err)
		}
	}
}

func TestAgingPlanRejectsWorkers(t *testing.T) {
	cfg := agingConfig()
	cfg.Sharding.Workers = 2
	if _, err := farm.Run(cfg); err == nil || !strings.Contains(err.Error(), "one device") {
		t.Fatalf("err = %v, want an aging plan to refuse 2 workers", err)
	}
	cfg.Sharding.Workers = 1
	if _, err := farm.Run(cfg); err != nil {
		t.Fatalf("one worker: %v", err)
	}
}
