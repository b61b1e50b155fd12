package farm_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/farm"
)

// TestAgingPlanIsIndependentPackageChains pins a metamorphic relation of
// the paper's single-watch study: the aging plan over the whole wear fleet
// gives every (campaign, package) unit the summary it gets from an aging
// plan over that package alone, so no device state a unit leaves behind
// reaches another package's units. Only BootCount, which counts the other
// packages' reboots too, may differ. The pinned reboot counts keep the
// relation honest: a quick-2 run rebooted the watch, so aging carried
// across a reboot is checked as well.
func TestAgingPlanIsIndependentPackageChains(t *testing.T) {
	for _, tc := range []struct{ quick, reboots int }{{8, 0}, {2, 1}} {
		checkPackageChains(t, 1, experiments.QuickGen(tc.quick), tc.reboots)
	}
}

// checkPackageChains runs the aging plan over the whole wear fleet and
// over each package alone, and compares every unit's summary. wantReboots
// is the whole-fleet run's reboot count.
func checkPackageChains(t *testing.T, seed uint64, gen core.GeneratorConfig, wantReboots int) {
	t.Helper()
	whole, err := farm.Run(farm.Config{Seed: seed, Gen: gen, Aging: farm.PaperAging()})
	if err != nil {
		t.Fatal(err)
	}
	if got := whole.Reboots(); got != wantReboots {
		t.Fatalf("seed %d %+v: whole-fleet run rebooted %d times, want %d", seed, gen, got, wantReboots)
	}
	want := make(map[farm.ShardKey]core.Summary)
	for _, cr := range whole.Campaigns {
		for _, s := range cr.Summaries {
			s.BootCount = 0
			want[farm.ShardKey{Campaign: cr.Campaign, Package: s.Package}] = s
		}
	}
	units := 0
	for _, p := range whole.Fleet.Packages {
		alone, err := farm.Run(farm.Config{Seed: seed, Packages: []string{p.Name}, Gen: gen, Aging: farm.PaperAging()})
		if err != nil {
			t.Fatal(err)
		}
		for _, cr := range alone.Campaigns {
			for _, s := range cr.Summaries {
				s.BootCount = 0
				key := farm.ShardKey{Campaign: cr.Campaign, Package: s.Package}
				if w, ok := want[key]; !ok || s != w {
					t.Errorf("seed %d %+v: %v alone = %+v, in the whole fleet %+v", seed, gen, key, s, w)
				}
				units++
			}
		}
	}
	if units != len(want) {
		t.Fatalf("seed %d %+v: the per-package plans ran %d units, the whole fleet %d", seed, gen, units, len(want))
	}
}
