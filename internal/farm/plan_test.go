package farm_test

import (
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/farm"
	"repro/internal/wearos"
)

// TestResultFleetMatchesFullBuild: a plan reads its population from the
// fleet template, and Result.Fleet is that template's metadata view. For
// every intent-fuzzed population, under a shard plan and an aging plan, its
// package order and Table II rows must equal the fully built fleet's, the
// population the paper's tables describe.
func TestResultFleetMatchesFullBuild(t *testing.T) {
	const seed = 3
	for _, tc := range []struct {
		kind  apps.FleetKind
		build func(uint64) *apps.Fleet
	}{
		{apps.WearFleet, apps.BuildWearFleet},
		{apps.PhoneFleet, apps.BuildPhoneFleet},
		{apps.LegacyPhoneFleet, apps.BuildLegacyPhoneFleet},
	} {
		want := tc.build(seed)
		var names []string
		for _, p := range want.Packages {
			names = append(names, p.Name)
		}
		for _, aging := range []*wearos.AgingConfig{nil, farm.PaperAging()} {
			res, err := farm.Run(farm.Config{
				Seed:          seed,
				Fleet:         tc.kind,
				Campaigns:     []core.Campaign{core.CampaignB},
				Packages:      names[:1],
				Gen:           experiments.QuickGen(16),
				Aging:         aging,
				DisableTriage: true,
			})
			if err != nil {
				t.Fatalf("%s aging=%v: %v", tc.kind, aging != nil, err)
			}
			got := res.Fleet
			if got.Kind != tc.kind || got.Seed != seed {
				t.Errorf("%s aging=%v: Result.Fleet is %s seed %d", tc.kind, aging != nil, got.Kind, got.Seed)
			}
			var gotNames []string
			for _, p := range got.Packages {
				gotNames = append(gotNames, p.Name)
			}
			if !reflect.DeepEqual(gotNames, names) {
				t.Errorf("%s aging=%v: package order\n got %v\nwant %v", tc.kind, aging != nil, gotNames, names)
			}
			if g, w := experiments.TableII(got), experiments.TableII(want); !reflect.DeepEqual(g, w) {
				t.Errorf("%s aging=%v: Table II\n got %+v\nwant %+v", tc.kind, aging != nil, g, w)
			}
		}
	}
}

// TestAgingPlanInstallsPerPackage: an aging plan installs its watch one
// package at a time from the plan's template. The reference installs the
// fully built wear fleet in one go and runs the same units, in plan order,
// with a plain core.Injector on the study seed. The logcat dump and every
// unit's summary must match.
func TestAgingPlanInstallsPerPackage(t *testing.T) {
	const seed = 1
	gen := experiments.QuickGen(8)
	res, err := farm.Run(farm.Config{Seed: seed, Gen: gen, Aging: farm.PaperAging()})
	if err != nil {
		t.Fatal(err)
	}
	var got []core.Summary
	for _, cr := range res.Campaigns {
		got = append(got, cr.Summaries...)
	}

	fleet := apps.BuildWearFleet(seed)
	cfg := wearos.DefaultWatchConfig()
	cfg.Aging = *farm.PaperAging()
	dev := wearos.New(cfg)
	if err := fleet.InstallInto(dev); err != nil {
		t.Fatal(err)
	}
	// A collector reads every line, as the plan's unit collectors do, so a
	// full ring drops lines without the unread-lines warning.
	dev.Logcat().Subscribe(analysis.NewCollector().Sink())
	gen.Seed = seed
	inj := &core.Injector{Dev: dev, Cfg: gen}
	var want []core.Summary
	for _, c := range core.AllCampaigns {
		for _, p := range fleet.Packages {
			want = append(want, core.Summarize(inj.FuzzApp(c, p), dev.BootCount()))
		}
	}

	if !reflect.DeepEqual(got, want) {
		t.Errorf("unit summaries differ from the whole-fleet watch:\n got %+v\nwant %+v", got, want)
	}
	if g, w := res.Device.Logcat().Dump(), dev.Logcat().Dump(); g != w {
		t.Errorf("logcat dump differs from the whole-fleet watch (%d vs %d bytes)", len(g), len(w))
	}
}
