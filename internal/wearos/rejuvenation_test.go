package wearos

import (
	"strings"
	"testing"
	"time"

	"repro/internal/intent"
	"repro/internal/javalang"
	"repro/internal/manifest"
)

// rejuvDevice boots a watch with the rejuvenation-enabled aging config and
// the standard test app.
func rejuvDevice(t *testing.T) *OS {
	t.Helper()
	cfg := DefaultWatchConfig()
	cfg.Aging = RejuvenatedAgingConfig()
	o := New(cfg)
	pkg := &manifest.Package{
		Name:     "com.test.app",
		Category: manifest.HealthFitness,
		Origin:   manifest.ThirdParty,
		Components: []*manifest.Component{
			{Name: cn("com.test.app", "MainActivity"), Type: manifest.Activity, Exported: true},
		},
	}
	if err := o.InstallPackage(pkg); err != nil {
		t.Fatal(err)
	}
	return o
}

func TestRejuvenationDefusesSensorEscalation(t *testing.T) {
	o := rejuvDevice(t)
	target := cn("com.test.app", "MainActivity")
	o.RegisterHandler(target, func(in *intent.Intent) Outcome {
		return Outcome{BusyFor: 10 * time.Second}
	}, ComponentTraits{UsesSensorManager: true})

	// Many more ANRs than the SIGABRT limit: rejuvenation resets the count
	// every RejuvenateANRLimit, so the watchdog never fires.
	for i := 0; i < 10; i++ {
		if got := o.StartActivity(explicit(target, "android.intent.action.VIEW")); got == DeviceRebooted {
			t.Fatal("device rebooted despite rejuvenation")
		}
	}
	if o.BootCount() != 1 {
		t.Fatalf("BootCount = %d", o.BootCount())
	}
	if got := o.SystemServer().Rejuvenations(); got < 3 {
		t.Fatalf("rejuvenations = %d, want several", got)
	}
	dump := o.Logcat().Dump()
	if !strings.Contains(dump, "rejuvenation: proactively restarting com.test.app") {
		t.Fatal("rejuvenation not logged")
	}
	if strings.Contains(dump, "SIGABRT") {
		t.Fatal("sensor service died despite rejuvenation")
	}
}

func TestRejuvenationDefusesAmbientEscalation(t *testing.T) {
	o := rejuvDevice(t)
	target := cn("com.test.app", "MainActivity")
	o.RegisterHandler(target, func(in *intent.Intent) Outcome {
		return Outcome{Thrown: javalang.New(javalang.ClassNullPointer, "x")}
	}, ComponentTraits{AmbientBound: true})

	for i := 0; i < 12; i++ {
		if got := o.StartActivity(explicit(target, "android.intent.action.MAIN")); got == DeviceRebooted {
			t.Fatal("device rebooted despite rejuvenation")
		}
	}
	if strings.Contains(o.Logcat().Dump(), "SIGSEGV") {
		t.Fatal("system_server segfaulted despite rejuvenation")
	}
	if o.SystemServer().Rejuvenations() == 0 {
		t.Fatal("no crash-loop rejuvenation recorded")
	}
}

func TestInstabilityTimeline(t *testing.T) {
	o := testDevice(t)
	s := o.SystemServer()
	if len(s.InstabilityTimeline()) != 0 {
		t.Fatal("fresh device has timeline samples")
	}
	s.RecordAppCrash("a", false)
	o.Clock().Advance(time.Second)
	s.RecordAppCrash("b", true)
	tl := s.InstabilityTimeline()
	if len(tl) != 2 {
		t.Fatalf("samples = %d", len(tl))
	}
	if !tl[1].At.After(tl[0].At) {
		t.Fatal("timeline not monotonic")
	}
	if tl[1].Value <= tl[0].Value {
		t.Fatalf("instability did not grow: %v", tl)
	}
	// The returned slice is a copy.
	tl[0].Value = -1
	if s.InstabilityTimeline()[0].Value == -1 {
		t.Fatal("timeline aliased internal state")
	}
}

func TestTimelineClearsOnReboot(t *testing.T) {
	o := testDevice(t)
	target := cn("com.test.app", "MainActivity")
	o.RegisterHandler(target, func(in *intent.Intent) Outcome {
		return Outcome{BusyFor: 10 * time.Second}
	}, ComponentTraits{UsesSensorManager: true})
	for i := 0; i < DefaultAgingConfig().SensorClientANRLimit; i++ {
		o.StartActivity(explicit(target, "android.intent.action.VIEW"))
	}
	if o.BootCount() != 2 {
		t.Fatal("no reboot")
	}
	if got := len(o.SystemServer().InstabilityTimeline()); got != 0 {
		t.Fatalf("timeline survived reboot: %d samples", got)
	}
}
