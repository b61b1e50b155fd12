package qgj_test

import (
	"strings"
	"testing"

	qgj "repro"
)

// TestPublicAPIWorkflow drives the library exactly the way the README's
// quickstart does: devices, fleet, QGJ pair, fuzz, analyze.
func TestPublicAPIWorkflow(t *testing.T) {
	phone := qgj.NewPhone("nexus4")
	watch := qgj.NewWatch("moto360")
	qgj.Pair(phone, watch)

	fleet := qgj.BuildWearFleet(1)
	if err := fleet.InstallInto(watch.OS); err != nil {
		t.Fatal(err)
	}
	mobile := qgj.InstallQGJ(phone, watch)

	comps, err := mobile.ListWearComponents()
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != 912 {
		t.Fatalf("components = %d, want 912 (Table II)", len(comps))
	}

	sum, err := mobile.StartFuzz("com.strava.wear", qgj.CampaignB, qgj.QuickGen(4))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Sent == 0 {
		t.Fatal("no intents sent")
	}

	col := qgj.NewCollector()
	col.ConsumeAll(watch.OS.Logcat().Snapshot())
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
	emu := qgj.NewEmulator("emu")
	fleet := qgj.BuildEmulatorFleet(1)
	if err := fleet.InstallInto(emu.OS); err != nil {
		t.Fatal(err)
	}
	sh := qgj.NewShell(emu.OS)
	res := sh.Run("pm list")
	if !strings.Contains(res.Output, "package:") {
		t.Fatalf("pm list output = %q", res.Output)
	}
	out := qgj.NewUIFuzzer(emu.OS).Run(qgj.SemiValid, qgj.UIConfig{Seed: 1, Events: 1000})
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
	watch := qgj.NewWatch("w")
	fleet := qgj.BuildWearFleet(2)
	if err := fleet.InstallInto(watch.OS); err != nil {
		t.Fatal(err)
	}
	fz := qgj.NewFuzzer(watch.OS, qgj.QuickGen(10))
	pkg := watch.OS.Registry().Package("com.whatsapp.wear")
	run := fz.FuzzApp(qgj.CampaignD, pkg)
	if run.Sent == 0 {
		t.Fatal("direct fuzzer sent nothing")
	}
}
