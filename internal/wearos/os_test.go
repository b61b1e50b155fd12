package wearos

import (
	"strings"
	"testing"
	"time"

	"repro/internal/intent"
	"repro/internal/javalang"
	"repro/internal/logcat"
	"repro/internal/manifest"
)

func cn(pkg, cls string) intent.ComponentName {
	return intent.ComponentName{Package: pkg, Class: pkg + "." + cls}
}

// testDevice builds an OS with one app: an exported activity and an
// exported service whose behaviours the individual tests override.
func testDevice(t *testing.T) *OS {
	t.Helper()
	o := New(DefaultWatchConfig())
	pkg := &manifest.Package{
		Name:     "com.test.app",
		Category: manifest.NotHealthFitness,
		Origin:   manifest.ThirdParty,
		Components: []*manifest.Component{
			{Name: cn("com.test.app", "MainActivity"), Type: manifest.Activity, Exported: true, MainLauncher: true},
			{Name: cn("com.test.app", "Worker"), Type: manifest.Service, Exported: true},
			{Name: cn("com.test.app", "Private"), Type: manifest.Service, Exported: false},
			{Name: cn("com.test.app", "Guarded"), Type: manifest.Activity, Exported: true,
				Permission: "android.permission.BODY_SENSORS"},
		},
	}
	if err := o.InstallPackage(pkg); err != nil {
		t.Fatal(err)
	}
	return o
}

func explicit(cnm intent.ComponentName, action string) *intent.Intent {
	return &intent.Intent{Action: action, Component: cnm, SenderUID: UIDAppBase + 100}
}

func TestNoEffectDelivery(t *testing.T) {
	o := testDevice(t)
	in := explicit(cn("com.test.app", "MainActivity"), "android.intent.action.VIEW")
	if got := o.StartActivity(in); got != DeliveredNoEffect {
		t.Fatalf("result = %v", got)
	}
	if o.Process("com.test.app") == nil {
		t.Fatal("process not started")
	}
}

func TestProtectedActionBlocked(t *testing.T) {
	o := testDevice(t)
	in := explicit(cn("com.test.app", "MainActivity"), "android.intent.action.BATTERY_LOW")
	if got := o.StartActivity(in); got != BlockedSecurity {
		t.Fatalf("result = %v, want BlockedSecurity", got)
	}
	// The SecurityException must be visible in logcat for the analyzer.
	found := false
	for _, e := range o.Logcat().Snapshot() {
		if strings.Contains(e.Msg(), "java.lang.SecurityException") {
			found = true
		}
	}
	if !found {
		t.Fatal("SecurityException not logged")
	}
	// The system itself may send protected actions.
	sys := explicit(cn("com.test.app", "MainActivity"), "android.intent.action.BATTERY_LOW")
	sys.SenderUID = UIDSystem
	if got := o.StartActivity(sys); got != DeliveredNoEffect {
		t.Fatalf("system sender result = %v", got)
	}
}

func TestUnknownComponentNotFound(t *testing.T) {
	o := testDevice(t)
	in := explicit(cn("com.test.app", "Missing"), "android.intent.action.VIEW")
	if got := o.StartActivity(in); got != BlockedNotFound {
		t.Fatalf("activity result = %v", got)
	}
	if got := o.StartService(in); got != BlockedNotFound {
		t.Fatalf("service result = %v", got)
	}
}

// TestImplicitIntentNotFound: only explicit intents resolve. An intent
// that names no component, even MAIN/LAUNCHER to a package whose launcher
// activity is installed, is blocked as not found and logs Android's
// implicit not-found line, which renders the intent in place of a
// component.
func TestImplicitIntentNotFound(t *testing.T) {
	o := testDevice(t)
	for _, kind := range []manifest.ComponentType{manifest.Activity, manifest.Service} {
		in := &intent.Intent{Action: "android.intent.action.MAIN", SenderUID: UIDAppBase + 100}
		in.AddCategory(intent.CategoryLauncher)
		var got DeliveryResult
		if kind == manifest.Activity {
			got = o.StartActivity(in)
		} else {
			got = o.StartService(in)
		}
		if got != BlockedNotFound {
			t.Fatalf("implicit %s: result = %v, want BlockedNotFound", kind, got)
		}
		snap := o.Logcat().Snapshot()
		e := snap[len(snap)-1]
		want := "Unable to start service Intent { act=android.intent.action.MAIN cat=android.intent.category.LAUNCHER } U=0: not found"
		if kind == manifest.Activity {
			want = "android.content.ActivityNotFoundException: No Activity found to handle Intent { act=android.intent.action.MAIN cat=android.intent.category.LAUNCHER }"
		}
		if e.Tag != logcat.TagActivityManager || e.Msg() != want {
			t.Errorf("implicit %s: logged %s %q, want %q", kind, e.Tag, e.Msg(), want)
		}
		// Like the explicit not-found line, it names no event.
		var live, dump logcat.Decoder
		if ev := live.Decode(&e); ev.Kind != logcat.EventNone {
			t.Errorf("implicit %s: line decodes to %+v", kind, *ev)
		}
		pe, ok := logcat.ParseLine(e.Format(), 2017)
		if !ok {
			t.Fatalf("implicit %s: dump line %q does not parse", kind, e.Format())
		}
		if ev := dump.Decode(&pe); ev.Kind != logcat.EventNone {
			t.Errorf("implicit %s: dump line decodes to %+v", kind, *ev)
		}
	}
	if o.Process("com.test.app") != nil {
		t.Fatal("an implicit intent started the app's process")
	}
}

func TestNonExportedBlocked(t *testing.T) {
	o := testDevice(t)
	in := explicit(cn("com.test.app", "Private"), "")
	if got := o.StartService(in); got != BlockedSecurity {
		t.Fatalf("result = %v, want BlockedSecurity", got)
	}
}

func TestComponentPermissionEnforced(t *testing.T) {
	o := testDevice(t)
	in := explicit(cn("com.test.app", "Guarded"), "android.intent.action.VIEW")
	if got := o.StartActivity(in); got != BlockedSecurity {
		t.Fatalf("result = %v, want BlockedSecurity", got)
	}
}

func TestWrongKindDoesNotResolve(t *testing.T) {
	o := testDevice(t)
	in := explicit(cn("com.test.app", "Worker"), "")
	if got := o.StartActivity(in); got != BlockedNotFound {
		t.Fatalf("starting service as activity = %v", got)
	}
}

func TestUncaughtExceptionCrashesProcess(t *testing.T) {
	o := testDevice(t)
	target := cn("com.test.app", "MainActivity")
	o.RegisterHandler(target, func(in *intent.Intent) Outcome {
		return Outcome{Thrown: javalang.New(javalang.ClassNullPointer,
			"Attempt to invoke virtual method on a null object reference")}
	}, ComponentTraits{})

	in := explicit(target, "android.intent.action.VIEW")
	if got := o.StartActivity(in); got != DeliveredCrash {
		t.Fatalf("result = %v", got)
	}
	if o.Process("com.test.app") != nil {
		t.Fatal("process survived FATAL EXCEPTION")
	}
	dump := o.Logcat().Dump()
	if !strings.Contains(dump, "FATAL EXCEPTION: main") {
		t.Fatal("no FATAL EXCEPTION block in logcat")
	}
	if !strings.Contains(dump, "java.lang.NullPointerException") {
		t.Fatal("exception class missing from crash block")
	}
	// Process restarts transparently on next delivery.
	o.RegisterHandler(target, nil, ComponentTraits{})
	if got := o.StartActivity(in); got != DeliveredNoEffect {
		t.Fatalf("post-crash delivery = %v", got)
	}
	if o.Process("com.test.app") == nil {
		t.Fatal("process not restarted")
	}
}

func TestCaughtExceptionIsHandled(t *testing.T) {
	o := testDevice(t)
	target := cn("com.test.app", "Worker")
	o.RegisterHandler(target, func(in *intent.Intent) Outcome {
		return Outcome{
			Thrown: javalang.New(javalang.ClassIllegalArgument, "bad extra"),
			Caught: true,
		}
	}, ComponentTraits{})
	in := explicit(target, "")
	if got := o.StartService(in); got != DeliveredHandledException {
		t.Fatalf("result = %v", got)
	}
	if o.Process("com.test.app") == nil {
		t.Fatal("caught exception killed the process")
	}
	if !strings.Contains(o.Logcat().Dump(), "caught exception") {
		t.Fatal("handled exception not logged")
	}
}

func TestANRDetection(t *testing.T) {
	o := testDevice(t)
	target := cn("com.test.app", "MainActivity")
	o.RegisterHandler(target, func(in *intent.Intent) Outcome {
		return Outcome{BusyFor: 12 * time.Second}
	}, ComponentTraits{})
	in := explicit(target, "android.intent.action.VIEW")
	if got := o.StartActivity(in); got != DeliveredANR {
		t.Fatalf("result = %v", got)
	}
	dump := o.Logcat().Dump()
	if !strings.Contains(dump, "ANR in com.test.app") {
		t.Fatal("ANR not logged")
	}
	if o.Process("com.test.app") == nil {
		t.Fatal("an ANR killed the process")
	}
}

func TestSensorEscalationPostMortem(t *testing.T) {
	// Post-mortem #1: repeated ANRs in a SensorManager client make the
	// system SIGABRT the sensor service; that instability reboots the
	// device.
	o := testDevice(t)
	target := cn("com.test.app", "MainActivity")
	o.RegisterHandler(target, func(in *intent.Intent) Outcome {
		return Outcome{BusyFor: 10 * time.Second}
	}, ComponentTraits{UsesSensorManager: true})
	in := explicit(target, "android.intent.action.VIEW")

	var last DeliveryResult
	for i := 0; i < DefaultAgingConfig().SensorClientANRLimit; i++ {
		last = o.StartActivity(in)
	}
	if last != DeviceRebooted {
		t.Fatalf("final delivery = %v, want DeviceRebooted (instability=%.1f)",
			last, o.SystemServer().Instability())
	}
	if o.BootCount() != 2 {
		t.Fatalf("BootCount = %d, want 2", o.BootCount())
	}
	dump := o.Logcat().Dump()
	for _, want := range []string{"SIGABRT", "libsensorservice", "REBOOTING", "boot #2"} {
		if !strings.Contains(dump, want) {
			t.Errorf("log missing %q", want)
		}
	}
	if o.LiveProcesses() != 0 {
		t.Fatal("processes survived reboot")
	}
}

func TestAmbientBindEscalationPostMortem(t *testing.T) {
	// Post-mortem #2: an ambient-bound built-in component that repeatedly
	// fails to start segfaults the system process and reboots the device.
	o := New(DefaultWatchConfig())
	pkg := &manifest.Package{
		Name:   "com.google.android.builtin",
		Origin: manifest.BuiltIn, Category: manifest.NotHealthFitness,
		Components: []*manifest.Component{
			{Name: cn("com.google.android.builtin", "Face"), Type: manifest.Activity, Exported: true},
		},
	}
	if err := o.InstallPackage(pkg); err != nil {
		t.Fatal(err)
	}
	target := cn("com.google.android.builtin", "Face")
	o.RegisterHandler(target, func(in *intent.Intent) Outcome {
		return Outcome{Thrown: javalang.New(javalang.ClassNullPointer, "missing data")}
	}, ComponentTraits{AmbientBound: true})
	in := explicit(target, "android.intent.action.MAIN")

	var rebooted bool
	for i := 0; i < DefaultAgingConfig().StartFailureLimit+1 && !rebooted; i++ {
		rebooted = o.StartActivity(in) == DeviceRebooted
	}
	if !rebooted {
		t.Fatalf("no reboot after start-failure streak (instability=%.1f)",
			o.SystemServer().Instability())
	}
	dump := o.Logcat().Dump()
	for _, want := range []string{"AmbientService", "SIGSEGV", "REBOOTING"} {
		if !strings.Contains(dump, want) {
			t.Errorf("log missing %q", want)
		}
	}
}

func TestStartSuccessResetsFailureStreak(t *testing.T) {
	o := testDevice(t)
	target := cn("com.test.app", "MainActivity")
	crash := true
	o.RegisterHandler(target, func(in *intent.Intent) Outcome {
		if crash {
			return Outcome{Thrown: javalang.New(javalang.ClassNullPointer, "x")}
		}
		return Outcome{}
	}, ComponentTraits{AmbientBound: true})
	in := explicit(target, "android.intent.action.MAIN")

	limit := DefaultAgingConfig().StartFailureLimit
	for i := 0; i < limit-1; i++ {
		if got := o.StartActivity(in); got != DeliveredCrash {
			t.Fatalf("delivery %d = %v", i, got)
		}
	}
	crash = false
	if got := o.StartActivity(in); got != DeliveredNoEffect {
		t.Fatalf("recovery delivery = %v", got)
	}
	crash = true
	// The streak restarted; one more crash must not trip the ambient path.
	if got := o.StartActivity(in); got != DeliveredCrash {
		t.Fatalf("post-recovery crash = %v", got)
	}
	if strings.Contains(o.Logcat().Dump(), "SIGSEGV") {
		t.Fatal("ambient escalation fired despite streak reset")
	}
}

func TestInstabilityDecays(t *testing.T) {
	o := testDevice(t)
	s := o.SystemServer()
	s.RecordAppCrash("com.test.app", false)
	before := s.Instability()
	if before <= 0 {
		t.Fatalf("instability after crash = %v", before)
	}
	o.Clock().Advance(DefaultAgingConfig().HalfLife)
	after := s.Instability()
	if after >= before*0.55 || after <= before*0.45 {
		t.Fatalf("decay after one half-life: %.3f -> %.3f", before, after)
	}
}

func TestCrashDoesNotRebootImmediately(t *testing.T) {
	// Single crashes must never reboot the device: the paper's reboots come
	// only from escalation chains.
	o := testDevice(t)
	target := cn("com.test.app", "MainActivity")
	o.RegisterHandler(target, func(in *intent.Intent) Outcome {
		return Outcome{Thrown: javalang.New(javalang.ClassNullPointer, "x")}
	}, ComponentTraits{})
	in := explicit(target, "android.intent.action.VIEW")
	for i := 0; i < 10; i++ {
		if got := o.StartActivity(in); got == DeviceRebooted {
			t.Fatal("isolated crashes rebooted the device")
		}
		// Pace like the fuzzer does; decay keeps instability bounded.
		o.Clock().Advance(100 * time.Millisecond)
	}
	if o.BootCount() != 1 {
		t.Fatalf("BootCount = %d", o.BootCount())
	}
}

func TestDispatchLogsStartEntries(t *testing.T) {
	o := testDevice(t)
	in := explicit(cn("com.test.app", "MainActivity"), "android.intent.action.VIEW")
	o.StartActivity(in)
	dump := o.Logcat().Dump()
	if !strings.Contains(dump, "START u0 {act=android.intent.action.VIEW") {
		t.Fatalf("missing START log:\n%s", dump)
	}
	if !strings.Contains(dump, "Delivering to activity cmp=com.test.app/.MainActivity") {
		t.Fatalf("missing delivery log:\n%s", dump)
	}
}
