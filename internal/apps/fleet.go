package apps

import (
	"fmt"
	"sort"

	"repro/internal/intent"
	"repro/internal/manifest"
	"repro/internal/rng"
	"repro/internal/wearos"
)

// FleetKind selects one of the three experimental populations.
type FleetKind int

const (
	// WearFleet is the Moto 360 population of Table II (QGJ-Master study).
	WearFleet FleetKind = iota + 1
	// PhoneFleet is the Nexus 6 com.android.* population (Table IV).
	PhoneFleet
	// EmulatorFleet is the QGJ-UI population: all built-in apps plus the
	// top-20 most popular third-party apps, with launcher-centric
	// behaviour profiles (Table V).
	EmulatorFleet
	// LegacyPhoneFleet is the same 63-app phone population with the
	// JJB-era (Android 2.x) robustness calibration: the historical
	// baseline against which the paper measures input-validation
	// improvement (Section IV-E).
	LegacyPhoneFleet
)

// String names the fleet kind.
func (k FleetKind) String() string {
	switch k {
	case WearFleet:
		return "wear"
	case PhoneFleet:
		return "phone"
	case EmulatorFleet:
		return "emulator"
	case LegacyPhoneFleet:
		return "legacy-phone"
	default:
		return "unknown"
	}
}

// Fleet is a fully materialized app population: manifests plus behaviour
// models, ready to install into a simulated device.
type Fleet struct {
	Kind     FleetKind
	Seed     uint64
	Packages []*manifest.Package

	behaviors map[intent.ComponentName]*behavior
	traits    map[intent.ComponentName]wearos.ComponentTraits
}

// BuildWearFleet constructs the 46-app wearable population.
func BuildWearFleet(seed uint64) *Fleet {
	f := newFleet(WearFleet, seed, wearPopulation())
	f.sampleAll()
	f.applyWearScenarios()
	return f
}

// BuildPhoneFleet constructs the 63-app phone population.
func BuildPhoneFleet(seed uint64) *Fleet {
	f := newFleet(PhoneFleet, seed, phonePopulation())
	f.sampleAll()
	return f
}

// BuildLegacyPhoneFleet constructs the same phone population with the
// JJB-era (Android 2.x) robustness calibration, for the historical
// input-validation comparison the paper draws against Maji et al. 2012.
func BuildLegacyPhoneFleet(seed uint64) *Fleet {
	f := newFleet(LegacyPhoneFleet, seed, phonePopulation())
	f.sampleAll()
	return f
}

// BuildEmulatorFleet constructs the QGJ-UI population: the wear fleet's
// built-in apps plus its top-20 third-party apps by downloads, with all
// components re-profiled for UI fuzzing.
func BuildEmulatorFleet(seed uint64) *Fleet {
	base := newFleet(EmulatorFleet, seed, wearPopulation())
	var builtIn, third []*manifest.Package
	for _, p := range base.Packages {
		if p.Origin == manifest.BuiltIn {
			builtIn = append(builtIn, p)
		} else {
			third = append(third, p)
		}
	}
	sort.Slice(third, func(i, j int) bool { return third[i].Downloads > third[j].Downloads })
	if len(third) > 20 {
		third = third[:20]
	}
	base.Packages = append(builtIn, third...)
	r := rng.New(seed).Split("ui-profiles")
	for _, p := range base.Packages {
		for _, c := range p.Components {
			base.behaviors[c.Name] = uiBehavior(c.Name, r.Split(c.Name.FlattenToString()))
			base.traits[c.Name] = wearos.ComponentTraits{}
		}
	}
	return base
}

func newFleet(kind FleetKind, seed uint64, blocks []populationBlock) *Fleet {
	r := rng.New(seed).Split("population")
	return &Fleet{
		Kind:      kind,
		Seed:      seed,
		Packages:  buildPackages(blocks, r),
		behaviors: make(map[intent.ComponentName]*behavior),
		traits:    make(map[intent.ComponentName]wearos.ComponentTraits),
	}
}

// params returns the population parameters for a package of this fleet.
func (f *Fleet) params(p *manifest.Package) *populationParams {
	if f.Kind == PhoneFleet {
		return &phoneParams
	}
	if f.Kind == LegacyPhoneFleet {
		return &legacyPhoneParams
	}
	if p.Origin == manifest.BuiltIn {
		return &wearBuiltInParams
	}
	if p.Category == manifest.HealthFitness {
		return &wearHealthThirdPartyParams
	}
	return &wearThirdPartyParams
}

// sampleAll quota-selects the crashy apps per population block and samples
// every component's behaviour.
//
// Quota sampling (rather than per-app coin flips) pins the app-level crash
// fractions to Fig. 4's 64% (built-in) and 46% (third-party) exactly, while
// the *which components, which defects, which exception classes* remain
// stochastic under the fleet seed.
func (f *Fleet) sampleAll() {
	crashy := f.crashyQuota()
	for _, p := range f.Packages {
		f.samplePackage(p, crashy[p.Name])
	}
}

// crashyQuota runs the per-origin quota draw over the whole population.
func (f *Fleet) crashyQuota() map[string]bool {
	r := rng.New(f.Seed).Split("behaviors")

	// Partition apps by origin for the quota draw.
	byOrigin := map[manifest.Origin][]*manifest.Package{}
	for _, p := range f.Packages {
		byOrigin[p.Origin] = append(byOrigin[p.Origin], p)
	}
	crashy := make(map[string]bool)
	for origin, pkgs := range byOrigin {
		frac := f.params(pkgs[0]).appCrashyFrac
		quota := int(frac*float64(len(pkgs)) + 0.5)
		order := append([]*manifest.Package(nil), pkgs...)
		rng.Shuffle(r.Split(fmt.Sprintf("crashy-quota-%d", origin)), order)
		for i := 0; i < quota && i < len(order); i++ {
			crashy[order[i].Name] = true
		}
	}
	return crashy
}

// samplePackage samples every component of one package.
func (f *Fleet) samplePackage(p *manifest.Package, crashy bool) {
	r := rng.New(f.Seed).Split("behaviors")
	params := f.params(p)
	for _, c := range p.Components {
		cr := r.Split("comp:" + c.Name.FlattenToString())
		f.behaviors[c.Name] = sampleBehavior(c.Name, params, crashy, cr)
		f.traits[c.Name] = wearos.ComponentTraits{
			UsesSensorManager: p.UsesSensorManager,
		}
	}
}

// FleetTemplate is the population built once and shared across every shard
// of a farm run: the manifest packages (structurally shared, treated as
// read-only after construction) plus the population-wide crashy quota draw.
// Instantiate stamps out a per-shard Fleet that shares the packages but
// samples behaviour for just one target package. The crashy quota still
// covers the whole population, and component streams are label-split from
// the seed, not sequence-dependent, so the target's behaviour is what the
// full build samples for it (asserted by
// TestFleetTemplateMatchesBuildFleetPackage).
type FleetTemplate struct {
	kind     FleetKind
	seed     uint64
	packages []*manifest.Package
	crashy   map[string]bool
}

// NewFleetTemplate builds the shared population once. Only the fleet kinds
// with a single-device population have one (EmulatorFleet restructures the
// package list). Safe to share across goroutines afterwards; Instantiate
// may be called concurrently.
func NewFleetTemplate(kind FleetKind, seed uint64) (*FleetTemplate, error) {
	var blocks []populationBlock
	switch kind {
	case WearFleet:
		blocks = wearPopulation()
	case PhoneFleet, LegacyPhoneFleet:
		blocks = phonePopulation()
	default:
		return nil, fmt.Errorf("apps: no single-package build for fleet kind %s", kind)
	}
	f := newFleet(kind, seed, blocks)
	crashy := f.crashyQuota()
	if kind == WearFleet {
		// The scenarios' manifest-level effects (ensureReachable's export/
		// permission strips) land here, once, while the packages are still
		// private; the behaviour overrides no-op on the empty behaviour maps
		// and are re-applied by each Instantiate.
		f.applyWearScenarios()
	}
	// Pre-warm the interned component strings so concurrent installs into
	// device clones only ever read them (Install's writes are conditional).
	for _, p := range f.Packages {
		for _, c := range p.Components {
			c.Flat()
		}
	}
	return &FleetTemplate{kind: kind, seed: seed, packages: f.Packages, crashy: crashy}, nil
}

// Kind returns the template's fleet kind.
func (t *FleetTemplate) Kind() FleetKind { return t.kind }

// Metadata returns the population as a fleet without behaviour: the
// template's packages, kind and seed. It installs no handlers, but carries
// everything the population tables read (Stats, categories, origins).
func (t *FleetTemplate) Metadata() *Fleet {
	return &Fleet{Kind: t.kind, Seed: t.seed, Packages: t.packages}
}

// Instantiate returns a fleet sharing the template's packages with
// behaviour sampled for just the named package — bit-identical to the
// package's behaviour in the full build. Safe to call concurrently.
func (t *FleetTemplate) Instantiate(pkg string) (*Fleet, error) {
	f := &Fleet{
		Kind:      t.kind,
		Seed:      t.seed,
		Packages:  t.packages,
		behaviors: make(map[intent.ComponentName]*behavior),
		traits:    make(map[intent.ComponentName]wearos.ComponentTraits),
	}
	p := f.Package(pkg)
	if p == nil {
		return nil, fmt.Errorf("package %q not in the %s fleet", pkg, f.Kind)
	}
	f.samplePackage(p, t.crashy[pkg])
	if t.kind == WearFleet {
		f.applyWearScenarios()
	}
	return f, nil
}

// Reset rewinds a previously Instantiated fleet back to the state
// Instantiate(pkg) produces, without resampling: every component behaviour's
// stochastic draw stream returns to its post-sample position, and the wear
// scenario overrides re-apply (they are idempotent — reactions are otherwise
// never mutated after instantiation). It reports false when f was not
// produced by this template for this package, in which case the caller must
// instantiate fresh; f is left untouched on the sanity-check failures and
// remains usable either way.
func (t *FleetTemplate) Reset(f *Fleet, pkg string) bool {
	if f == nil || f.Kind != t.kind || f.Seed != t.seed || len(f.Packages) != len(t.packages) {
		return false
	}
	for i := range f.Packages {
		if f.Packages[i] != t.packages[i] {
			return false
		}
	}
	p := f.Package(pkg)
	if p == nil {
		return false
	}
	for _, c := range p.Components {
		b := f.behaviors[c.Name]
		if b == nil {
			return false
		}
		b.draw.Restore(b.drawInit)
	}
	if t.kind == WearFleet {
		f.applyWearScenarios()
	}
	return true
}

// Behavior exposes a component's behaviour model (tests and scenario
// wiring).
func (f *Fleet) Behavior(cn intent.ComponentName) *behavior { return f.behaviors[cn] }

// Traits exposes a component's OS traits.
func (f *Fleet) Traits(cn intent.ComponentName) wearos.ComponentTraits { return f.traits[cn] }

// CrashyApps lists package names whose components carry at least one crash
// reaction (diagnostics and calibration tests).
func (f *Fleet) CrashyApps() []string {
	seen := map[string]bool{}
	for cn, b := range f.behaviors {
		for _, rc := range b.reactions {
			if rc.kind == reactCrash {
				seen[cn.Package] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Package returns the fleet package with the given name, or nil.
func (f *Fleet) Package(name string) *manifest.Package {
	for _, p := range f.Packages {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// Stats aggregates the fleet the way Table II does.
func (f *Fleet) Stats(cat manifest.AppCategory, origin manifest.Origin) manifest.Stats {
	var s manifest.Stats
	for _, p := range f.Packages {
		if cat != 0 && p.Category != cat {
			continue
		}
		if origin != 0 && p.Origin != origin {
			continue
		}
		s.Apps++
		for _, c := range p.Components {
			switch c.Type {
			case manifest.Activity:
				s.Activities++
			case manifest.Service:
				s.Services++
			}
		}
	}
	return s
}

// InstallInto installs every package and registers every behaviour handler
// on the device.
func (f *Fleet) InstallInto(dev *wearos.OS) error {
	for _, p := range f.Packages {
		if err := f.installPackage(dev, p); err != nil {
			return err
		}
	}
	return nil
}

// InstallPackageInto installs a single fleet package (and its handlers) on
// the device. Farm shards fuzz exactly one package per device, so they skip
// the other installs; the package's sampled behaviour is identical either
// way because every component's model derives from its own RNG split.
func (f *Fleet) InstallPackageInto(dev *wearos.OS, name string) (*manifest.Package, error) {
	p := f.Package(name)
	if p == nil {
		return nil, fmt.Errorf("package %q not in the %s fleet", name, f.Kind)
	}
	if err := f.installPackage(dev, p); err != nil {
		return nil, err
	}
	return p, nil
}

func (f *Fleet) installPackage(dev *wearos.OS, p *manifest.Package) error {
	if err := dev.InstallPackage(p); err != nil {
		return fmt.Errorf("install %s: %w", p.Name, err)
	}
	for _, c := range p.Components {
		b := f.behaviors[c.Name]
		if b == nil {
			continue
		}
		dev.RegisterHandler(c.Name, b.handler(c.Type), f.traits[c.Name])
	}
	return nil
}
