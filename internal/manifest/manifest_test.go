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
		Label:    "Example Fit",
		Category: HealthFitness,
		Origin:   ThirdParty,
		Components: []*Component{
			{
				Name: cn(pkg, "MainActivity"), Type: Activity, Exported: true, MainLauncher: true,
				Filters: []*IntentFilter{{
					Actions:    []string{"android.intent.action.MAIN"},
					Categories: []string{intent.CategoryLauncher, intent.CategoryDefault},
				}},
			},
			{
				Name: cn(pkg, "ShareActivity"), Type: Activity, Exported: true,
				Filters: []*IntentFilter{{
					Actions:     []string{"android.intent.action.SEND"},
					Categories:  []string{intent.CategoryDefault},
					MimeTypes:   []string{"text/*"},
					DataSchemes: nil,
				}},
			},
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
	if got := r.Component(cn(p1.Name, "MainActivity")); got != nil {
		t.Fatal("old component survived reinstall")
	}
	if got := r.Component(cn(p1.Name, "OnlyOne")); got == nil {
		t.Fatal("new component not registered")
	}
	if n := len(r.Packages()); n != 1 {
		t.Fatalf("package count after reinstall = %d", n)
	}
}

func TestUninstall(t *testing.T) {
	r := NewRegistry()
	p := samplePackage()
	if err := r.Install(p); err != nil {
		t.Fatal(err)
	}
	if !r.Uninstall(p.Name) {
		t.Fatal("Uninstall returned false")
	}
	if r.Uninstall(p.Name) {
		t.Fatal("second Uninstall returned true")
	}
	if r.Component(cn(p.Name, "MainActivity")) != nil {
		t.Fatal("component survived uninstall")
	}
}

func TestImplicitResolution(t *testing.T) {
	r := NewRegistry()
	if err := r.Install(samplePackage()); err != nil {
		t.Fatal(err)
	}
	in := &intent.Intent{
		Action:     "android.intent.action.SEND",
		Type:       "text/plain",
		Categories: []string{intent.CategoryDefault},
	}
	got := r.Resolve(in, Activity)
	if got == nil || got.Name.Class != "com.example.fit.ShareActivity" {
		t.Fatalf("implicit resolve = %v", got)
	}
	// Non-exported components must not match implicit intents.
	in2 := &intent.Intent{Action: "anything"}
	if got := r.Resolve(in2, Service); got != nil {
		t.Fatalf("resolved non-exported or non-matching service: %v", got)
	}
}

func TestFilterActionSemantics(t *testing.T) {
	f := &IntentFilter{Actions: []string{"A"}, Categories: []string{intent.CategoryDefault}}
	// Intent with no action passes the action test.
	if !f.Matches(&intent.Intent{}) {
		t.Error("empty-action intent should match")
	}
	if f.Matches(&intent.Intent{Action: "B"}) {
		t.Error("mismatched action matched")
	}
	// Filter with no actions matches nothing.
	empty := &IntentFilter{}
	if empty.Matches(&intent.Intent{}) {
		t.Error("action-less filter matched")
	}
}

func TestFilterCategorySemantics(t *testing.T) {
	f := &IntentFilter{
		Actions:    []string{"A"},
		Categories: []string{intent.CategoryDefault, intent.CategoryBrowsable},
	}
	ok := &intent.Intent{Action: "A", Categories: []string{intent.CategoryDefault}}
	if !f.Matches(ok) {
		t.Error("subset categories should match")
	}
	bad := &intent.Intent{Action: "A", Categories: []string{intent.CategoryHome}}
	if f.Matches(bad) {
		t.Error("undeclared category matched")
	}
}

func TestFilterDataSemantics(t *testing.T) {
	f := &IntentFilter{Actions: []string{"A"}, DataSchemes: []string{"https"}}
	withData := &intent.Intent{Action: "A"}
	withData.Data, _ = intent.ParseURI("https://foo.com/")
	if !f.Matches(withData) {
		t.Error("scheme match failed")
	}
	wrong := &intent.Intent{Action: "A"}
	wrong.Data, _ = intent.ParseURI("tel:123")
	if f.Matches(wrong) {
		t.Error("wrong scheme matched")
	}
	// Filter without data only matches intents without data.
	noData := &IntentFilter{Actions: []string{"A"}}
	if noData.Matches(withData) {
		t.Error("data intent matched data-less filter")
	}
	if !noData.Matches(&intent.Intent{Action: "A"}) {
		t.Error("data-less intent should match data-less filter")
	}
}

func TestMimeWildcards(t *testing.T) {
	tests := []struct {
		pattern, typ string
		want         bool
	}{
		{"text/plain", "text/plain", true},
		{"text/*", "text/html", true},
		{"text/*", "image/png", false},
		{"*/*", "application/json", true},
		{"image/png", "image/jpeg", false},
	}
	for _, tt := range tests {
		if got := mimeMatches(tt.pattern, tt.typ); got != tt.want {
			t.Errorf("mimeMatches(%q, %q) = %v, want %v", tt.pattern, tt.typ, got, tt.want)
		}
	}
}

func TestStatsFor(t *testing.T) {
	r := NewRegistry()
	if err := r.Install(samplePackage()); err != nil {
		t.Fatal(err)
	}
	other := &Package{
		Name: "com.other.app", Category: NotHealthFitness, Origin: BuiltIn,
		Components: []*Component{
			{Name: cn("com.other.app", "A"), Type: Activity},
			{Name: cn("com.other.app", "S"), Type: Service},
		},
	}
	if err := r.Install(other); err != nil {
		t.Fatal(err)
	}
	all := r.StatsFor(0, 0)
	if all.Apps != 2 || all.Activities != 3 || all.Services != 3 {
		t.Fatalf("all stats = %+v", all)
	}
	health := r.StatsFor(HealthFitness, 0)
	if health.Apps != 1 || health.Activities != 2 || health.Services != 2 {
		t.Fatalf("health stats = %+v", health)
	}
	builtin := r.StatsFor(0, BuiltIn)
	if builtin.Apps != 1 || builtin.Activities != 1 {
		t.Fatalf("builtin stats = %+v", builtin)
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
	pr.Register("com.example.CUSTOM")
	if !pr.Known("com.example.CUSTOM") {
		t.Error("registered permission unknown")
	}
	list := pr.List()
	if len(list) != len(StandardPermissions)+1 {
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

	if !r.Uninstall(pkg.Name) {
		t.Fatal("Uninstall reported the package missing")
	}
	if got := r.Resolve(in, Service); got != nil {
		t.Fatalf("Resolve after Uninstall = %v, want nil", got)
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
