package apps

import (
	"testing"

	"repro/internal/intent"
	"repro/internal/manifest"
)

func TestWearFleetMatchesTableII(t *testing.T) {
	f := BuildWearFleet(1)
	tests := []struct {
		cat    manifest.AppCategory
		origin manifest.Origin
		apps   int
		acts   int
		svcs   int
	}{
		{manifest.HealthFitness, manifest.BuiltIn, 2, 81, 34},
		{manifest.HealthFitness, manifest.ThirdParty, 11, 80, 59},
		{manifest.NotHealthFitness, manifest.BuiltIn, 9, 168, 188},
		{manifest.NotHealthFitness, manifest.ThirdParty, 24, 185, 117},
	}
	for _, tt := range tests {
		s := f.Stats(tt.cat, tt.origin)
		if s.Apps != tt.apps || s.Activities != tt.acts || s.Services != tt.svcs {
			t.Errorf("%s/%s: got %+v, want {%d %d %d}",
				tt.cat, tt.origin, s, tt.apps, tt.acts, tt.svcs)
		}
	}
	total := f.Stats(0, 0)
	if total.Apps != 46 || total.Activities != 514 || total.Services != 398 {
		t.Fatalf("total = %+v, want 46 apps, 514 activities, 398 services", total)
	}
}

func TestPhoneFleetMatchesPaper(t *testing.T) {
	f := BuildPhoneFleet(1)
	s := f.Stats(0, 0)
	if s.Apps != 63 || s.Activities != 595 || s.Services != 218 {
		t.Fatalf("phone fleet = %+v, want 63 apps, 595 activities, 218 services", s)
	}
	for _, p := range f.Packages {
		if len(p.Name) < 12 || p.Name[:12] != "com.android." {
			t.Fatalf("phone package %q lacks com.android. prefix", p.Name)
		}
	}
}

func TestEmulatorFleetComposition(t *testing.T) {
	f := BuildEmulatorFleet(1)
	builtIn, third := 0, 0
	for _, p := range f.Packages {
		if p.Origin == manifest.BuiltIn {
			builtIn++
		} else {
			third++
			if p.Downloads < 1_000_000 {
				t.Errorf("third-party app %s has %d downloads (<1M)", p.Name, p.Downloads)
			}
		}
	}
	if builtIn != 11 {
		t.Errorf("emulator built-in apps = %d, want 11", builtIn)
	}
	if third != 20 {
		t.Errorf("emulator third-party apps = %d, want top 20", third)
	}
	// Every emulator component carries a UI profile.
	for _, p := range f.Packages {
		for _, c := range p.Components {
			b := f.Behavior(c.Name)
			if b == nil || !isUIProfile(b) {
				t.Fatalf("component %s lacks UI profile", c.Name.FlattenToString())
			}
		}
	}
}

func TestFleetDeterminism(t *testing.T) {
	a, b := BuildWearFleet(7), BuildWearFleet(7)
	if len(a.Packages) != len(b.Packages) {
		t.Fatal("package counts differ")
	}
	for i := range a.Packages {
		pa, pb := a.Packages[i], b.Packages[i]
		if pa.Name != pb.Name || pa.Downloads != pb.Downloads || len(pa.Components) != len(pb.Components) {
			t.Fatalf("package %d differs: %s vs %s", i, pa.Name, pb.Name)
		}
		for j := range pa.Components {
			ca, cb := pa.Components[j], pb.Components[j]
			if ca.Name != cb.Name || ca.Exported != cb.Exported || ca.Permission != cb.Permission {
				t.Fatalf("component differs: %v vs %v", ca.Name, cb.Name)
			}
			ba, bb := a.Behavior(ca.Name), b.Behavior(cb.Name)
			if len(ba.reactions) != len(bb.reactions) {
				t.Fatalf("reaction table sizes differ for %v", ca.Name)
			}
			for k, ra := range ba.reactions {
				rb, ok := bb.reactions[k]
				if !ok || ra.kind != rb.kind || ra.class != rb.class {
					t.Fatalf("reaction differs for %v kind %v", ca.Name, k)
				}
			}
		}
	}
	// Different seeds must differ somewhere in the behaviour tables.
	c := BuildWearFleet(8)
	diff := false
	for cn, ba := range a.behaviors {
		bc := c.Behavior(cn)
		if bc == nil || len(ba.reactions) != len(bc.reactions) {
			diff = true
			break
		}
		for k, ra := range ba.reactions {
			if rc, ok := bc.reactions[k]; !ok || rc.kind != ra.kind || rc.class != ra.class {
				diff = true
				break
			}
		}
	}
	if !diff {
		t.Fatal("seeds 7 and 8 produced identical fleets")
	}
}

func TestQuotaCrashyFractions(t *testing.T) {
	f := BuildWearFleet(3)
	crashy := map[string]bool{}
	for _, name := range f.CrashyApps() {
		crashy[name] = true
	}
	countBy := func(origin manifest.Origin) (crashyN, total int) {
		for _, p := range f.Packages {
			if p.Origin != origin {
				continue
			}
			total++
			if crashy[p.Name] {
				crashyN++
			}
		}
		return
	}
	bi, biTotal := countBy(manifest.BuiltIn)
	tp, tpTotal := countBy(manifest.ThirdParty)
	// Quota: 64% of 11 built-in = 7; 46% of 35 third-party = 16. Scenario
	// overrides can add at most a couple of extra crashy apps.
	if bi < 6 || bi > 9 {
		t.Errorf("crashy built-in apps = %d/%d, want ~7", bi, biTotal)
	}
	if tp < 14 || tp > 19 {
		t.Errorf("crashy third-party apps = %d/%d, want ~16", tp, tpTotal)
	}
}

func TestAnalyzeIntentKinds(t *testing.T) {
	mk := func(action, data string) *intent.Intent {
		in := &intent.Intent{Action: action}
		if data != "" {
			u, ok := intent.ParseURI(data)
			if !ok {
				// Simulate a raw unparseable datum as an unknown scheme.
				u = intent.URI{Scheme: "x-raw", Opaque: data}
			}
			in.Data = u
		}
		return in
	}
	tests := []struct {
		name string
		in   *intent.Intent
		want DefectKind
	}{
		{"valid view", mk("android.intent.action.VIEW", "https://foo.com/"), KindNone},
		{"valid dial", mk("android.intent.action.DIAL", "tel:123"), KindNone},
		{"mismatch", mk("android.intent.action.DIAL", "https://foo.com/"), KindMismatch},
		{"missing action", mk("", "tel:123"), KindMissingAction},
		{"missing data", mk("android.intent.action.DIAL", ""), KindMissingData},
		{"no data expected", mk("android.intent.action.MAIN", ""), KindNone},
		{"random action", mk("S0me.r@ndom.ACTION", "tel:123"), KindRandomAction},
		{"random data", mk("android.intent.action.VIEW", "zz9q:junk"), KindRandomData},
		{"blank everything", mk("", ""), KindMissingAction},
	}
	for _, tt := range tests {
		if got := AnalyzeIntent(tt.in); got != tt.want {
			t.Errorf("%s: AnalyzeIntent = %v, want %v", tt.name, got, tt.want)
		}
	}
}

func TestAnalyzeIntentExtras(t *testing.T) {
	in := &intent.Intent{Action: "android.intent.action.VIEW"}
	in.Data, _ = intent.ParseURI("https://foo.com/")
	in.PutExtra("android.intent.extra.TEXT", intent.StringValue("hi"))
	if got := AnalyzeIntent(in); got != KindNone {
		t.Fatalf("expected extras accepted, got %v", got)
	}
	in2 := in.Clone()
	in2.PutExtra("fuzzKey1", intent.StringValue("junk"))
	if got := AnalyzeIntent(in2); got != KindRandomExtras {
		t.Fatalf("unexpected key: got %v", got)
	}
	in3 := in.Clone()
	in3.PutExtra("android.intent.extra.STREAM", intent.NullValue())
	if got := AnalyzeIntent(in3); got != KindNullExtra {
		t.Fatalf("null extra: got %v", got)
	}
}

func TestScenarioOverridesPresent(t *testing.T) {
	f := BuildWearFleet(1)

	// Sensor post-mortem: three Moto Body services hang on mismatch and use
	// SensorManager.
	hangs := 0
	for i := 0; i < 3; i++ {
		cn := f.nthComponent("com.motorola.omni", manifest.Service, i)
		b := f.Behavior(cn)
		if r, ok := b.reactions[KindMismatch]; ok && r.kind == reactHang {
			hangs++
		}
		if !f.Traits(cn).UsesSensorManager {
			t.Errorf("omni service %d lacks SensorManager trait", i)
		}
	}
	if hangs != 3 {
		t.Errorf("omni hang components = %d, want 3", hangs)
	}

	// Ambient post-mortem: one Clock activity crashes on random extras and
	// is ambient bound.
	clock := f.nthComponent("com.google.android.deskclock", manifest.Activity, 1)
	if r, ok := f.Behavior(clock).reactions[KindRandomExtras]; !ok || r.kind != reactCrash {
		t.Error("deskclock ambient crash override missing")
	}
	if !f.Traits(clock).AmbientBound {
		t.Error("deskclock component not ambient bound")
	}

	// Google Fit IAE crash on missing data.
	gfit := f.nthComponent("com.google.android.apps.fitness", manifest.Activity, 2)
	if r, ok := f.Behavior(gfit).reactions[KindMissingData]; !ok || r.kind != reactCrash {
		t.Error("Google Fit crash override missing")
	}

	// GridViewPager arithmetic crash in a health third-party app.
	hw := f.nthComponent("com.heartwatch.wear", manifest.Activity, 0)
	if r, ok := f.Behavior(hw).reactions[KindMismatch]; !ok || r.kind != reactCrash {
		t.Error("heartwatch arithmetic override missing")
	} else if r.class.Simple() != "ArithmeticException" {
		t.Errorf("heartwatch crash class = %s", r.class)
	}
}

func TestInstallIntoDevice(t *testing.T) {
	f := BuildWearFleet(1)
	dev := newTestOS(t)
	if err := f.InstallInto(dev); err != nil {
		t.Fatal(err)
	}
	if n := dev.Registry().Count(); n != 46 {
		t.Fatalf("installed apps = %d", n)
	}
}

func TestLauncherComponentsExist(t *testing.T) {
	f := BuildWearFleet(1)
	for _, p := range f.Packages {
		if p.Launcher() == nil {
			t.Errorf("package %s has no launcher activity", p.Name)
		}
	}
}
