// Package manifest models AndroidManifest.xml-level metadata: packages,
// application components (Activities and Services), and permissions.
//
// The QGJ study targets Activities and Services "because they form the large
// majority of the components on AW apps" (Section III-B); the PackageManager
// model resolves explicit intents against this metadata and enforces the
// exported/permission attributes that produce the SecurityExceptions the
// paper measures.
package manifest

import (
	"fmt"
	"sort"

	"repro/internal/intent"
)

// ComponentType enumerates the Android component kinds relevant to the
// study.
type ComponentType int

const (
	Activity ComponentType = iota + 1
	Service
)

// String returns the manifest tag name for the component type.
func (t ComponentType) String() string {
	switch t {
	case Activity:
		return "activity"
	case Service:
		return "service"
	default:
		return "unknown"
	}
}

// AppCategory is the paper's primary application split (Table II).
type AppCategory int

const (
	HealthFitness AppCategory = iota + 1
	NotHealthFitness
)

// String renders the category the way Table II labels it.
func (c AppCategory) String() string {
	switch c {
	case HealthFitness:
		return "Health/Fitness"
	case NotHealthFitness:
		return "Not Health/Fitness"
	default:
		return "unknown"
	}
}

// Origin is the paper's orthogonal classification: built-in (pre-installed,
// developed by Google/vendor) versus third party (Play Store).
type Origin int

const (
	BuiltIn Origin = iota + 1
	ThirdParty
)

// String renders the origin the way Table II labels it.
func (o Origin) String() string {
	switch o {
	case BuiltIn:
		return "Built-in"
	case ThirdParty:
		return "Third Party"
	default:
		return "unknown"
	}
}

// Component is one declared component of a package.
type Component struct {
	Name       intent.ComponentName
	Type       ComponentType
	Exported   bool
	Permission string // required caller permission; empty means none
	// MainLauncher marks the entry activity (MAIN/LAUNCHER filter); QGJ-UI
	// only targets launcher activities (Section IV-D).
	MainLauncher bool

	// flat caches the rendered component identity string; Registry.Install
	// precomputes it so the dispatch hot path never re-flattens a long-lived
	// component. Lazily filled on first use for components that never pass
	// through a registry.
	flat string
}

// Flat returns the cached Name.FlattenToString().
func (c *Component) Flat() string {
	if c.flat == "" {
		c.flat = c.Name.FlattenToString()
	}
	return c.flat
}

// Package is one installed application.
type Package struct {
	Name       string // e.g. com.fitwell.tracker
	Category   AppCategory
	Origin     Origin
	Downloads  int64 // Play Store downloads (3rd-party selection criterion)
	Components []*Component
	// UsesSensorManager marks apps that use SensorManager directly (the
	// first reboot post-mortem involves such an app).
	UsesSensorManager bool
}

// ComponentsOf returns the package's components of the given type.
func (p *Package) ComponentsOf(t ComponentType) []*Component {
	var out []*Component
	for _, c := range p.Components {
		if c.Type == t {
			out = append(out, c)
		}
	}
	return out
}

// Launcher returns the package's MAIN/LAUNCHER activity, or nil.
func (p *Package) Launcher() *Component {
	for _, c := range p.Components {
		if c.MainLauncher {
			return c
		}
	}
	return nil
}

// Registry indexes installed packages and resolves component lookups; it is
// the PackageManager's data plane. Like the device that owns it, it is not
// safe for concurrent use: Resolve updates its memo.
type Registry struct {
	packages map[string]*Package
	byName   map[intent.ComponentName]*Component
	order    []string
	// hot memoizes the component the last explicit Resolve found: a
	// campaign resolves thousands of intents to one component in a row,
	// and comparing names that share their strings is cheaper than hashing
	// them. Install and Clear drop it.
	hot *Component
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		packages: make(map[string]*Package),
		byName:   make(map[intent.ComponentName]*Component),
	}
}

// Install adds pkg to the registry. Reinstalling a package name replaces the
// previous version. It returns an error when a component is declared under a
// different package than its own.
func (r *Registry) Install(pkg *Package) error {
	if pkg.Name == "" {
		return fmt.Errorf("manifest: package with empty name")
	}
	for _, c := range pkg.Components {
		if c.Name.Package != pkg.Name {
			return fmt.Errorf("manifest: component %s declared in package %s", c.Name, pkg.Name)
		}
	}
	r.hot = nil
	if old, ok := r.packages[pkg.Name]; ok {
		for _, c := range old.Components {
			delete(r.byName, c.Name)
		}
	} else {
		r.order = append(r.order, pkg.Name)
	}
	r.packages[pkg.Name] = pkg
	for _, c := range pkg.Components {
		r.byName[c.Name] = c
		// The interned string is write-once: packages structurally shared
		// across device clones are installed concurrently, and rewriting an
		// already-cached value would race with readers on sibling devices.
		if c.flat == "" {
			c.flat = c.Name.FlattenToString()
		}
	}
	return nil
}

// Clear removes every installed package, returning the registry to its
// NewRegistry state while reusing the map allocations. The persistent-mode
// device reset clears and reinstalls the snapshot's package set in place.
func (r *Registry) Clear() {
	clear(r.packages)
	clear(r.byName)
	r.order = r.order[:0]
	r.hot = nil
}

// Package returns the named package, or nil.
func (r *Registry) Package(name string) *Package { return r.packages[name] }

// Count returns the number of installed packages.
func (r *Registry) Count() int { return len(r.order) }

// Packages returns all installed packages in installation order.
func (r *Registry) Packages() []*Package {
	out := make([]*Package, 0, len(r.order))
	for _, n := range r.order {
		out = append(out, r.packages[n])
	}
	return out
}

// Resolve returns the component an intent resolves to. Only explicit
// intents resolve, by component name: QGJ and QGJ-UI always name their
// target, and an intent without a component resolves to nothing.
func (r *Registry) Resolve(in *intent.Intent, want ComponentType) *Component {
	if !in.IsExplicit() {
		return nil
	}
	c := r.hot
	if c == nil || c.Name != in.Component {
		if c = r.byName[in.Component]; c != nil {
			r.hot = c
		}
	}
	if c == nil || c.Type != want {
		return nil
	}
	return c
}

// Stats summarizes a fleet the way Table II does.
type Stats struct {
	Apps       int
	Activities int
	Services   int
}

// PermissionRegistry records the permission strings known to the device;
// `pm` rejects permission strings not registered here (Section IV-D).
type PermissionRegistry struct {
	known map[string]bool
}

// NewPermissionRegistry returns a registry pre-loaded with the given
// permissions.
func NewPermissionRegistry(perms ...string) *PermissionRegistry {
	m := make(map[string]bool, len(perms))
	for _, p := range perms {
		m[p] = true
	}
	return &PermissionRegistry{known: m}
}

// Reset replaces the contents with exactly perms, reusing the map
// allocation.
func (pr *PermissionRegistry) Reset(perms []string) {
	clear(pr.known)
	for _, p := range perms {
		pr.known[p] = true
	}
}

// Known reports whether perm is registered on the device.
func (pr *PermissionRegistry) Known(perm string) bool { return pr.known[perm] }

// Count returns the number of registered permissions.
func (pr *PermissionRegistry) Count() int { return len(pr.known) }

// List returns all registered permissions, sorted.
func (pr *PermissionRegistry) List() []string {
	out := make([]string, 0, len(pr.known))
	for p := range pr.known {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Standard Android permissions used by the simulated fleets.
var StandardPermissions = []string{
	"android.permission.BODY_SENSORS",
	"android.permission.ACTIVITY_RECOGNITION",
	"android.permission.INTERNET",
	"android.permission.ACCESS_FINE_LOCATION",
	"android.permission.ACCESS_COARSE_LOCATION",
	"android.permission.WAKE_LOCK",
	"android.permission.VIBRATE",
	"android.permission.RECEIVE_BOOT_COMPLETED",
	"android.permission.READ_CONTACTS",
	"android.permission.CALL_PHONE",
	"android.permission.RECORD_AUDIO",
	"android.permission.CAMERA",
	"android.permission.BLUETOOTH",
	"android.permission.BLUETOOTH_ADMIN",
	"android.permission.READ_EXTERNAL_STORAGE",
	"android.permission.WRITE_EXTERNAL_STORAGE",
}
