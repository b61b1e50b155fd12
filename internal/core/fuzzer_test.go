package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/intent"
	"repro/internal/javalang"
	"repro/internal/manifest"
	"repro/internal/wearos"
)

func newFuzzTestDevice(t *testing.T) (*wearos.OS, *manifest.Package) {
	t.Helper()
	dev := wearos.New(wearos.DefaultWatchConfig())
	pkg := &manifest.Package{
		Name:     "com.fuzz.target",
		Category: manifest.NotHealthFitness,
		Origin:   manifest.ThirdParty,
		Components: []*manifest.Component{
			{Name: intent.ComponentName{Package: "com.fuzz.target", Class: "com.fuzz.target.ui.Main"},
				Type: manifest.Activity, Exported: true, MainLauncher: true},
			{Name: intent.ComponentName{Package: "com.fuzz.target", Class: "com.fuzz.target.svc.Sync"},
				Type: manifest.Service, Exported: true},
		},
	}
	if err := dev.InstallPackage(pkg); err != nil {
		t.Fatal(err)
	}
	return dev, pkg
}

func TestFuzzComponentCountsAndPacing(t *testing.T) {
	dev, pkg := newFuzzTestDevice(t)
	inj := &Injector{Dev: dev, Cfg: GeneratorConfig{ActionStride: 10, SchemeStride: 4}}
	start := dev.Clock().Now()
	run := inj.FuzzComponent(CampaignB, pkg.Components[0])

	want := CampaignB.CountPerComponent(inj.Cfg)
	if run.Sent != want {
		t.Fatalf("Sent = %d, want %d", run.Sent, want)
	}
	// Pacing: 100 ms per intent plus 250 ms per full batch of 100.
	wantDur := time.Duration(want)*InterIntentDelay + time.Duration(want/BatchSize)*BatchPause
	if got := dev.Clock().Now().Sub(start); got != wantDur {
		t.Fatalf("virtual time advanced %v, want %v", got, wantDur)
	}
	total := 0
	for _, n := range run.Results {
		total += n
	}
	if total != run.Sent {
		t.Fatalf("results sum %d != sent %d", total, run.Sent)
	}
}

func TestFuzzAppCoversBothComponentTypes(t *testing.T) {
	dev, pkg := newFuzzTestDevice(t)
	inj := &Injector{Dev: dev, Cfg: GeneratorConfig{ActionStride: 20, SchemeStride: 6}}
	run := inj.FuzzApp(CampaignA, pkg)
	if len(run.Components) != 2 {
		t.Fatalf("fuzzed %d components, want 2", len(run.Components))
	}
	types := map[manifest.ComponentType]bool{}
	for _, cr := range run.Components {
		types[cr.Type] = true
	}
	if !types[manifest.Activity] || !types[manifest.Service] {
		t.Fatal("both Activities and Services must be fuzzed")
	}
}

func TestSecurityExceptionsObserved(t *testing.T) {
	// Campaign A sweeps every action, including protected ones, so the
	// security-blocked count must be positive and the exception visible in
	// logcat (the 81.3% population in the paper).
	dev, pkg := newFuzzTestDevice(t)
	inj := &Injector{Dev: dev, Cfg: GeneratorConfig{SchemeStride: 12}}
	run := inj.FuzzComponent(CampaignA, pkg.Components[0])
	if run.Results[wearos.BlockedSecurity] == 0 {
		t.Fatal("no security-blocked deliveries despite protected actions in sweep")
	}
	if !strings.Contains(dev.Logcat().Dump(), "SecurityException") {
		t.Fatal("SecurityException missing from logcat")
	}
}

func TestCrashObservedThroughFuzzer(t *testing.T) {
	dev, pkg := newFuzzTestDevice(t)
	target := pkg.Components[0]
	dev.RegisterHandler(target.Name, func(in *intent.Intent) wearos.Outcome {
		if in.Action == "" && !in.Data.IsZero() {
			return wearos.Outcome{Thrown: javalang.New(javalang.ClassNullPointer, "no action")}
		}
		return wearos.Outcome{}
	}, wearos.ComponentTraits{})
	inj := &Injector{Dev: dev, Cfg: GeneratorConfig{}}
	run := inj.FuzzComponent(CampaignB, target)
	// FIC B sends 12 data-only intents; each crashes the restarted process.
	if got := run.Results[wearos.DeliveredCrash]; got != len(intent.Schemes) {
		t.Fatalf("crashes = %d, want %d", got, len(intent.Schemes))
	}
}

func TestFuzzAppAllCampaignsOrder(t *testing.T) {
	dev, pkg := newFuzzTestDevice(t)
	inj := &Injector{Dev: dev, Cfg: GeneratorConfig{ActionStride: 50, SchemeStride: 6, RandomVariants: 1, ExtrasVariants: 1}}
	runs := inj.FuzzAppAllCampaigns(pkg)
	if len(runs) != 4 {
		t.Fatalf("ran %d campaigns", len(runs))
	}
	for i, want := range AllCampaigns {
		if runs[i].Campaign != want {
			t.Fatalf("campaign %d = %v, want %v", i, runs[i].Campaign, want)
		}
	}
}

func TestSummarize(t *testing.T) {
	dev, pkg := newFuzzTestDevice(t)
	inj := &Injector{Dev: dev, Cfg: GeneratorConfig{ActionStride: 25, SchemeStride: 4}}
	run := inj.FuzzApp(CampaignB, pkg)
	s := Summarize(run, dev.BootCount())
	if s.Package != pkg.Name || s.Campaign != "B" {
		t.Fatalf("summary header = %+v", s)
	}
	if s.Sent != run.Sent {
		t.Fatalf("summary sent = %d, want %d", s.Sent, run.Sent)
	}
	if s.NoEffect+s.Handled+s.Rejected+s.Crashes+s.ANRs+s.Security+s.NotFound+s.Reboots != s.Sent {
		t.Fatalf("summary buckets do not add up: %+v", s)
	}
	if !strings.Contains(s.String(), "campaign B") {
		t.Errorf("summary string = %q", s.String())
	}
}
