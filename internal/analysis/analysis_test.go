package analysis

import (
	"testing"
	"time"

	"repro/internal/intent"
	"repro/internal/javalang"
	"repro/internal/manifest"
	"repro/internal/wearos"
)

func cn(pkg, cls string) intent.ComponentName {
	return intent.ComponentName{Package: pkg, Class: pkg + "." + cls}
}

// deviceWithApp builds an OS whose log buffer feeds a Collector live, and
// installs one app with configurable handlers.
func deviceWithApp(t *testing.T) (*wearos.OS, *Collector) {
	t.Helper()
	dev := wearos.New(wearos.DefaultWatchConfig())
	col := NewCollector()
	dev.Logcat().Subscribe(col.Sink())
	pkg := &manifest.Package{
		Name:     "com.a.app",
		Category: manifest.NotHealthFitness,
		Origin:   manifest.ThirdParty,
		Components: []*manifest.Component{
			{Name: cn("com.a.app", "Main"), Type: manifest.Activity, Exported: true},
			{Name: cn("com.a.app", "Svc"), Type: manifest.Service, Exported: true},
		},
	}
	if err := dev.InstallPackage(pkg); err != nil {
		t.Fatal(err)
	}
	return dev, col
}

func send(dev *wearos.OS, target intent.ComponentName, kind manifest.ComponentType, action string) wearos.DeliveryResult {
	in := &intent.Intent{Action: action, Component: target, SenderUID: wearos.UIDAppBase + 100}
	if kind == manifest.Service {
		return dev.StartService(in)
	}
	return dev.StartActivity(in)
}

func TestCollectorSeesDeliveries(t *testing.T) {
	dev, col := deviceWithApp(t)
	send(dev, cn("com.a.app", "Main"), manifest.Activity, "android.intent.action.VIEW")
	send(dev, cn("com.a.app", "Svc"), manifest.Service, "")

	rep := col.Report()
	main := rep.Components[cn("com.a.app", "Main")]
	if main == nil || main.Deliveries != 1 || main.Type != "activity" {
		t.Fatalf("main report = %+v", main)
	}
	svc := rep.Components[cn("com.a.app", "Svc")]
	if svc == nil || svc.Type != "service" {
		t.Fatalf("svc report = %+v", svc)
	}
	if main.Manifestation() != ManifestNoEffect {
		t.Fatalf("manifestation = %v", main.Manifestation())
	}
}

func TestCollectorSecurityAttribution(t *testing.T) {
	dev, col := deviceWithApp(t)
	send(dev, cn("com.a.app", "Main"), manifest.Activity, "android.intent.action.BATTERY_LOW")
	rep := col.Report()
	main := rep.Components[cn("com.a.app", "Main")]
	if main == nil || main.Security != 1 {
		t.Fatalf("security = %+v", main)
	}
	if rep.SecurityEvents != 1 {
		t.Fatalf("SecurityEvents = %d", rep.SecurityEvents)
	}
	classes := main.UncaughtClasses(true)
	if len(classes) != 1 || classes[0] != javalang.ClassSecurity {
		t.Fatalf("uncaught classes = %v", classes)
	}
	if got := main.UncaughtClasses(false); len(got) != 0 {
		t.Fatalf("security leaked into non-security classes: %v", got)
	}
}

func TestCollectorCrashRootCause(t *testing.T) {
	dev, col := deviceWithApp(t)
	target := cn("com.a.app", "Main")
	dev.RegisterHandler(target, func(in *intent.Intent) wearos.Outcome {
		root := javalang.New(javalang.ClassNullPointer, "null ref")
		top := javalang.New(javalang.ClassRuntime, "Unable to start activity").WithCause(root)
		return wearos.Outcome{Thrown: top}
	}, wearos.ComponentTraits{})
	if got := send(dev, target, manifest.Activity, "android.intent.action.VIEW"); got != wearos.DeliveredCrash {
		t.Fatalf("delivery = %v", got)
	}
	rep := col.Report()
	cr := rep.Components[target]
	if cr.Manifestation() != ManifestCrash {
		t.Fatalf("manifestation = %v", cr.Manifestation())
	}
	// Temporal chain: the NPE (deepest cause) takes the blame, not the
	// wrapping RuntimeException.
	if cr.CrashRoots[javalang.ClassNullPointer] != 1 || len(cr.CrashRoots) != 1 {
		t.Fatalf("crash roots = %v", cr.CrashRoots)
	}
	if rep.CrashEvents != 1 {
		t.Fatalf("CrashEvents = %d", rep.CrashEvents)
	}
}

func TestCollectorRejectedAndCaught(t *testing.T) {
	dev, col := deviceWithApp(t)
	target := cn("com.a.app", "Svc")
	mode := "reject"
	dev.RegisterHandler(target, func(in *intent.Intent) wearos.Outcome {
		thr := javalang.New(javalang.ClassIllegalArgument, "bad")
		if mode == "reject" {
			return wearos.Outcome{Thrown: thr, Rejected: true}
		}
		return wearos.Outcome{Thrown: thr, Caught: true}
	}, wearos.ComponentTraits{})

	send(dev, target, manifest.Service, "")
	mode = "caught"
	send(dev, target, manifest.Service, "")

	cr := col.Report().Components[target]
	if cr.Rejected[javalang.ClassIllegalArgument] != 1 {
		t.Fatalf("rejected = %v", cr.Rejected)
	}
	if cr.Caught[javalang.ClassIllegalArgument] != 1 {
		t.Fatalf("caught = %v", cr.Caught)
	}
	// Rejected is uncaught; caught is not.
	if got := cr.UncaughtClasses(false); len(got) != 1 || got[0] != javalang.ClassIllegalArgument {
		t.Fatalf("uncaught = %v", got)
	}
	if cr.Manifestation() != ManifestNoEffect {
		t.Fatalf("manifestation = %v", cr.Manifestation())
	}
}

func TestCollectorANRWithTrace(t *testing.T) {
	dev, col := deviceWithApp(t)
	target := cn("com.a.app", "Main")
	dev.RegisterHandler(target, func(in *intent.Intent) wearos.Outcome {
		return wearos.Outcome{
			BusyFor: 10 * time.Second,
			Thrown:  javalang.New(javalang.ClassDeadObject, "binder died"),
		}
	}, wearos.ComponentTraits{})
	if got := send(dev, target, manifest.Activity, "android.intent.action.VIEW"); got != wearos.DeliveredANR {
		t.Fatalf("delivery = %v", got)
	}
	cr := col.Report().Components[target]
	if cr.ANRs != 1 || cr.Manifestation() != ManifestUnresponsive {
		t.Fatalf("ANR report = %+v", cr)
	}
	if cr.ANRClasses[javalang.ClassDeadObject] == 0 {
		t.Fatalf("ANR classes = %v", cr.ANRClasses)
	}
}

func TestCollectorRebootAttribution(t *testing.T) {
	dev, col := deviceWithApp(t)
	target := cn("com.a.app", "Main")
	dev.RegisterHandler(target, func(in *intent.Intent) wearos.Outcome {
		return wearos.Outcome{BusyFor: 10 * time.Second}
	}, wearos.ComponentTraits{UsesSensorManager: true})

	var last wearos.DeliveryResult
	for i := 0; i < wearos.DefaultAgingConfig().SensorClientANRLimit; i++ {
		last = send(dev, target, manifest.Activity, "android.intent.action.VIEW")
	}
	if last != wearos.DeviceRebooted {
		t.Fatalf("device did not reboot: %v", last)
	}
	rep := col.Report()
	if len(rep.RebootTimes) != 1 {
		t.Fatalf("reboots seen = %d", len(rep.RebootTimes))
	}
	cr := rep.Components[target]
	if !cr.RebootInvolved || cr.Manifestation() != ManifestReboot {
		t.Fatalf("reboot attribution missing: %+v", cr)
	}
	found := false
	for _, d := range rep.CoreServiceDeaths {
		if d == "sensorservice SIGABRT" {
			found = true
		}
	}
	if !found {
		t.Fatalf("core service deaths = %v", rep.CoreServiceDeaths)
	}
}

func TestPulledDumpMatchesStreaming(t *testing.T) {
	// The same log analyzed from a pulled dump must match the streaming
	// collector's view (the paper pulls logs over adb after the run).
	dev, streaming := deviceWithApp(t)
	target := cn("com.a.app", "Main")
	dev.RegisterHandler(target, func(in *intent.Intent) wearos.Outcome {
		if in.Action == "" {
			return wearos.Outcome{Thrown: javalang.New(javalang.ClassNullPointer, "x")}
		}
		return wearos.Outcome{}
	}, wearos.ComponentTraits{})
	send(dev, target, manifest.Activity, "android.intent.action.VIEW")
	send(dev, target, manifest.Activity, "")

	pulled := AnalyzeEntries(dev.Logcat().Snapshot())
	a := streaming.Report().Components[target]
	b := pulled.Components[target]
	if a == nil || b == nil {
		t.Fatal("component missing from a report")
	}
	if a.Deliveries != b.Deliveries || len(a.CrashRoots) != len(b.CrashRoots) ||
		a.Manifestation() != b.Manifestation() {
		t.Fatalf("streaming %+v != pulled %+v", a, b)
	}
}

func TestManifestationSeverityOrdering(t *testing.T) {
	if !(ManifestNoEffect < ManifestUnresponsive &&
		ManifestUnresponsive < ManifestCrash && ManifestCrash < ManifestReboot) {
		t.Fatal("severity ordering broken")
	}
}

func TestAggregations(t *testing.T) {
	rep := newReport()
	a := rep.component(cn("com.p1", "A"))
	a.Type = "activity"
	a.Security = 2
	a.CrashRoots[javalang.ClassNullPointer] = 3
	b := rep.component(cn("com.p1", "B"))
	b.Type = "service"
	b.Security = 1
	c := rep.component(cn("com.p2", "C"))
	c.Type = "activity"
	c.ANRs = 1
	c.ANRClasses[javalang.ClassIllegalState] = 1

	mc := rep.ManifestationCounts()
	if mc[ManifestCrash] != 1 || mc[ManifestNoEffect] != 1 || mc[ManifestUnresponsive] != 1 {
		t.Fatalf("manifestation counts = %v", mc)
	}

	dist := rep.UncaughtClassDistribution(true)
	total := 0
	for _, cc := range dist {
		total += cc.Count
	}
	// a: security+NPE, b: security, c: ISE → 4 pairs, 2 security.
	if total != 4 {
		t.Fatalf("distribution total = %d (%v)", total, dist)
	}
	if got := rep.SecurityShare(); got != 0.5 {
		t.Fatalf("SecurityShare = %v", got)
	}

	byType := rep.UncaughtByComponentType(false)
	if len(byType["activity"]) == 0 {
		t.Fatalf("byType = %v", byType)
	}

	apps := rep.AppManifestations()
	if apps["com.p1"] != ManifestCrash || apps["com.p2"] != ManifestUnresponsive {
		t.Fatalf("app manifestations = %v", apps)
	}
	if got := rep.AppsWithCrash(); len(got) != 1 || got[0] != "com.p1" {
		t.Fatalf("AppsWithCrash = %v", got)
	}

	blame := rep.ManifestationBlame()
	crash := blame[ManifestCrash]
	if len(crash) != 1 || crash[0].Class != javalang.ClassNullPointer || crash[0].Share != 1 {
		t.Fatalf("crash blame = %v", crash)
	}
	noEff := blame[ManifestNoEffect]
	if len(noEff) != 1 || noEff[0].Class != NoExceptionClass {
		t.Fatalf("no-effect blame = %v", noEff)
	}
}

func TestMergeReports(t *testing.T) {
	r1 := newReport()
	c1 := r1.component(cn("com.p", "A"))
	c1.Type = "activity"
	c1.Deliveries = 5
	c1.CrashRoots[javalang.ClassNullPointer] = 1
	r1.CrashEvents = 1

	r2 := newReport()
	c2 := r2.component(cn("com.p", "A"))
	c2.Deliveries = 7
	c2.ANRs = 1
	r2.ANREvents = 1
	r2.RebootTimes = []time.Time{time.Now()}

	r1.Merge(r2)
	got := r1.Components[cn("com.p", "A")]
	if got.Deliveries != 12 || got.ANRs != 1 || got.CrashRoots[javalang.ClassNullPointer] != 1 {
		t.Fatalf("merged = %+v", got)
	}
	if r1.CrashEvents != 1 || r1.ANREvents != 1 || len(r1.RebootTimes) != 1 {
		t.Fatalf("merged report counters wrong: %+v", r1)
	}
	if got.Manifestation() != ManifestCrash {
		t.Fatalf("merged manifestation = %v", got.Manifestation())
	}
}

func TestComponentNamesDeterministic(t *testing.T) {
	rep := newReport()
	rep.component(cn("com.b", "X"))
	rep.component(cn("com.a", "Z"))
	rep.component(cn("com.a", "A"))
	names := rep.ComponentNames()
	if len(names) != 3 || names[0].Package != "com.a" || names[0].Class != "com.a.A" {
		t.Fatalf("names = %v", names)
	}
}
