package manifest

import (
	"testing"

	"repro/internal/intent"
)

func cn(pkg, cls string) intent.ComponentName {
	return intent.ComponentName{Package: pkg, Class: pkg + "." + cls}
}

func samplePackage() *Package {
	pkg := "com.example.fit"
	return &Package{
		Name:     pkg,
		Category: HealthFitness,
		Origin:   ThirdParty,
		Components: []*Component{
			{Name: cn(pkg, "MainActivity"), Type: Activity, Exported: true, MainLauncher: true},
			{Name: cn(pkg, "ShareActivity"), Type: Activity, Exported: true},
			{Name: cn(pkg, "SyncService"), Type: Service, Exported: true},
			{Name: cn(pkg, "HiddenService"), Type: Service, Exported: false},
		},
	}
}

func TestInstallAndResolveExplicit(t *testing.T) {
	r := NewRegistry()
	if err := r.Install(samplePackage()); err != nil {
		t.Fatal(err)
	}
	in := &intent.Intent{Component: cn("com.example.fit", "SyncService")}
	if got := r.Resolve(in, Service); got == nil || got.Name != in.Component {
		t.Fatalf("Resolve explicit service = %v", got)
	}
	// Wrong component type must not resolve.
	if got := r.Resolve(in, Activity); got != nil {
		t.Fatalf("service resolved as activity: %v", got)
	}
	// Unknown components must not resolve.
	in2 := &intent.Intent{Component: cn("com.example.fit", "Nope")}
	if got := r.Resolve(in2, Service); got != nil {
		t.Fatalf("unknown component resolved: %v", got)
	}
}

func TestInstallRejectsForeignComponents(t *testing.T) {
	r := NewRegistry()
	bad := &Package{
		Name:       "com.a",
		Components: []*Component{{Name: cn("com.b", "X"), Type: Activity}},
	}
	if err := r.Install(bad); err == nil {
		t.Fatal("Install accepted a component from another package")
	}
	if err := r.Install(&Package{}); err == nil {
		t.Fatal("Install accepted an empty package name")
	}
}

func TestReinstallReplaces(t *testing.T) {
	r := NewRegistry()
	p1 := samplePackage()
	if err := r.Install(p1); err != nil {
		t.Fatal(err)
	}
	p2 := &Package{
		Name:       p1.Name,
		Components: []*Component{{Name: cn(p1.Name, "OnlyOne"), Type: Activity, Exported: true}},
	}
	if err := r.Install(p2); err != nil {
		t.Fatal(err)
	}
	if got := r.Resolve(&intent.Intent{Component: cn(p1.Name, "MainActivity")}, Activity); got != nil {
		t.Fatal("old component survived reinstall")
	}
	if got := r.Resolve(&intent.Intent{Component: cn(p1.Name, "OnlyOne")}, Activity); got == nil {
		t.Fatal("new component not registered")
	}
	if n := len(r.Packages()); n != 1 {
		t.Fatalf("package count after reinstall = %d", n)
	}
}

// TestImplicitResolution: an intent that names no component resolves to
// nothing, whatever its action, type or categories; only explicit intents
// reach a component.
func TestImplicitResolution(t *testing.T) {
	r := NewRegistry()
	if err := r.Install(samplePackage()); err != nil {
		t.Fatal(err)
	}
	for _, in := range []*intent.Intent{
		{Action: "android.intent.action.MAIN", Categories: []string{intent.CategoryLauncher}},
		{Action: "android.intent.action.SEND", Type: "text/plain", Categories: []string{intent.CategoryDefault}},
		{},
	} {
		for _, want := range []ComponentType{Activity, Service} {
			if got := r.Resolve(in, want); got != nil {
				t.Errorf("implicit %s resolved as %s to %v", in, want, got.Name)
			}
		}
	}
}

func TestLauncherLookup(t *testing.T) {
	p := samplePackage()
	l := p.Launcher()
	if l == nil || !l.MainLauncher {
		t.Fatalf("Launcher() = %v", l)
	}
	q := &Package{Name: "com.nolauncher"}
	if q.Launcher() != nil {
		t.Fatal("launcher found in launcher-less package")
	}
}

func TestPermissionRegistry(t *testing.T) {
	pr := NewPermissionRegistry(StandardPermissions...)
	if !pr.Known("android.permission.BODY_SENSORS") {
		t.Error("standard permission unknown")
	}
	if pr.Known("S0me.r@ndom.$trinG") {
		t.Error("random permission string known")
	}
	list := pr.List()
	if len(list) != len(StandardPermissions) {
		t.Errorf("List() has %d entries", len(list))
	}
}

func TestEnumStrings(t *testing.T) {
	if Activity.String() != "activity" || Service.String() != "service" {
		t.Error("ComponentType.String broken")
	}
	if HealthFitness.String() != "Health/Fitness" || NotHealthFitness.String() != "Not Health/Fitness" {
		t.Error("AppCategory.String broken")
	}
	if BuiltIn.String() != "Built-in" || ThirdParty.String() != "Third Party" {
		t.Error("Origin.String broken")
	}
}

// TestResolveMemoFollowsInstalls: the explicit-resolution memo must never
// serve a component its package no longer installs.
func TestResolveMemoFollowsInstalls(t *testing.T) {
	r := NewRegistry()
	pkg := samplePackage()
	if err := r.Install(pkg); err != nil {
		t.Fatal(err)
	}
	in := &intent.Intent{Component: cn("com.example.fit", "SyncService")}
	first := r.Resolve(in, Service)
	if first == nil || r.Resolve(in, Service) != first {
		t.Fatalf("Resolve = %v, want the installed SyncService twice", first)
	}

	// A new version without the component drops it.
	if err := r.Install(&Package{Name: pkg.Name}); err != nil {
		t.Fatal(err)
	}
	if got := r.Resolve(in, Service); got != nil {
		t.Fatalf("Resolve after reinstall without the component = %v, want nil", got)
	}

	if err := r.Install(pkg); err != nil {
		t.Fatal(err)
	}
	r.Resolve(in, Service)
	// Reinstalling the package replaces its components.
	v2 := samplePackage()
	if err := r.Install(v2); err != nil {
		t.Fatal(err)
	}
	if got := r.Resolve(in, Service); got == nil || got == first {
		t.Fatalf("Resolve after reinstall = %p, want the new version's component, not %p", got, first)
	}

	r.Clear()
	if got := r.Resolve(in, Service); got != nil {
		t.Fatalf("Resolve after Clear = %v, want nil", got)
	}
}
