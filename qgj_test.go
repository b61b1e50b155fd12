package qgj_test

import (
	"strings"
	"testing"

	qgj "repro"
)

// TestPublicAPIWorkflow drives the library exactly the way the README's
// quickstart does: a one-app aging plan, its summary, and a logcat
// analysis of the aged watch.
func TestPublicAPIWorkflow(t *testing.T) {
	res, err := qgj.RunWearStudy(qgj.StudyOptions{
		Seed:      1,
		Packages:  []string{"com.strava.wear"},
		Campaigns: []qgj.Campaign{qgj.CampaignA},
		Gen:       qgj.QuickGen(4),
		Aging:     qgj.PaperAging(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent == 0 {
		t.Fatal("no intents sent")
	}
	if len(res.Campaigns) != 1 || len(res.Campaigns[0].Summaries) != 1 {
		t.Fatalf("campaigns = %+v, want one summary", res.Campaigns)
	}
	if pkg := res.Campaigns[0].Summaries[0].Package; pkg != "com.strava.wear" {
		t.Fatalf("summary package = %q", pkg)
	}

	col := qgj.NewCollector()
	col.ConsumeAll(res.Device.Logcat().Snapshot())
	rep := col.Report()
	if len(rep.Components) == 0 {
		t.Fatal("analyzer saw nothing")
	}
	for _, cr := range rep.Components {
		m := cr.Manifestation()
		if m < qgj.NoEffect || m > qgj.Reboot {
			t.Fatalf("manifestation out of range: %v", m)
		}
	}
}

func TestPublicShellAndUIFuzzer(t *testing.T) {
	emu := qgj.NewEmulator()
	fleet := qgj.BuildEmulatorFleet(1)
	if err := fleet.InstallInto(emu); err != nil {
		t.Fatal(err)
	}
	sh := qgj.NewShell(emu)
	res := sh.Run("pm list")
	if !strings.Contains(res.Output(), "package:") {
		t.Fatalf("pm list output = %q", res.Output())
	}
	out := qgj.NewUIFuzzer(emu).Run(qgj.SemiValid, qgj.UIConfig{Seed: 1, Events: 1000})
	if out.Injected != 1000 {
		t.Fatalf("injected = %d", out.Injected)
	}
}

func TestPublicStudyEntryPoints(t *testing.T) {
	sr, err := qgj.RunWearStudy(qgj.StudyOptions{
		Seed:     1,
		Gen:      qgj.QuickGen(20),
		Packages: []string{"com.spotify.wear"},
		Aging:    qgj.PaperAging(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if sr.Sent == 0 || len(sr.Campaigns) != 4 {
		t.Fatalf("study result = %+v", sr)
	}
	ui, err := qgj.RunUIStudy(qgj.UIStudyOptions{Seed: 1, Events: 500})
	if err != nil {
		t.Fatal(err)
	}
	if ui.SemiValid.Injected != 500 || ui.Random.Injected != 500 {
		t.Fatal("ui study volumes wrong")
	}
}

func TestPublicFuzzerDirect(t *testing.T) {
	watch := qgj.NewWatch()
	fleet := qgj.BuildWearFleet(2)
	if err := fleet.InstallInto(watch); err != nil {
		t.Fatal(err)
	}
	fz := qgj.NewFuzzer(watch, qgj.QuickGen(10))
	pkg := watch.Registry().Package("com.whatsapp.wear")
	run := fz.FuzzApp(qgj.CampaignD, pkg)
	if run.Sent == 0 {
		t.Fatal("direct fuzzer sent nothing")
	}
}
