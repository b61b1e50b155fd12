package farm_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/farm"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// persistExport runs one campaign over the given packages and renders the
// canonical export with execution metadata blanked.
func persistExport(t *testing.T, c core.Campaign, pkgs []string, gen core.GeneratorConfig,
	sharding core.Sharding, reg *telemetry.Registry) string {
	t.Helper()
	res, err := farm.Run(farm.Config{
		Seed:      1,
		Campaigns: []core.Campaign{c},
		Packages:  pkgs,
		Gen:       gen,
		Sharding:  sharding,
		Telemetry: reg,
	})
	if err != nil {
		t.Fatalf("campaign %s: %v", c.Letter(), err)
	}
	res.Workers = 0
	res.Resumed = 0
	data, err := service.ExportResult(res, 1)
	if err != nil {
		t.Fatalf("campaign %s export: %v", c.Letter(), err)
	}
	return string(data)
}

// TestPersistEquivalencePerCampaign is the reset-equivalence property test
// at campaign granularity: for each campaign A-D and the fault-injection
// campaign F, a persistent-mode run — where one hot device per worker is
// reset in place between shards, including shards that just crashed
// processes or closed fault windows on it — exports byte-identically to
// the fresh-boot oracle.
func TestPersistEquivalencePerCampaign(t *testing.T) {
	for _, c := range append(append([]core.Campaign{}, core.AllCampaigns...), core.CampaignF) {
		off := farm.UseFreshBoot(t)
		want := persistExport(t, c, testPackages, testGen(), core.Sharding{Workers: 1}, nil)
		off()
		reg := telemetry.NewRegistry()
		got := persistExport(t, c, testPackages, testGen(), core.Sharding{Workers: 2}, reg)
		if got != want {
			t.Errorf("campaign %s: persistent-mode export differs from fresh boot:\n--- fresh boot ---\n%s\n--- persist ---\n%s",
				c.Letter(), want, got)
		}
		snap := reg.Snapshot()
		if snap.Counters["farm_persist_reuses_total"] == 0 {
			t.Errorf("campaign %s: persistent run recorded zero reuses", c.Letter())
		}
	}
}

// TestPersistRetiresRebootShardDevice drives the full-scale campaign A
// reboot (com.motorola.omni's sensor-service escalation) through a
// persistent worker followed by another shard on the same worker: the
// rebooted hot device must retire, the next shard must fall back to a
// clone, and the merged export must still match the fresh-boot oracle.
func TestPersistRetiresRebootShardDevice(t *testing.T) {
	pkgs := []string{"com.motorola.omni", "com.heartwatch.wear"}
	// Zero Gen = full paper scale; the reboot needs the full action matrix.
	gen := core.GeneratorConfig{}
	off := farm.UseFreshBoot(t)
	want := persistExport(t, core.CampaignA, pkgs, gen, core.Sharding{Workers: 1}, nil)
	off()

	reg := telemetry.NewRegistry()
	got := persistExport(t, core.CampaignA, pkgs, gen, core.Sharding{Workers: 1}, reg)
	if got != want {
		t.Error("persistent-mode export differs from fresh boot after a reboot shard")
	}
	snap := reg.Snapshot()
	if n := snap.Counters["farm_persist_retires_total"]; n == 0 {
		t.Error("rebooted hot device was not retired")
	}
	if n := snap.Counters["farm_persist_fallbacks_total"]; n == 0 {
		t.Error("no fallback clone after retirement")
	}
}
