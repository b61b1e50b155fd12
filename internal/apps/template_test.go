package apps

import (
	"reflect"
	"sync"
	"testing"
)

// TestFleetTemplateMatchesBuildFleetPackage pins the farm's fleet path:
// instantiating a package from a shared template must produce the exact
// behaviour model, traits, and manifest state that the full fleet build
// produces for that package, for every package of every intent-fuzzed
// population.
func TestFleetTemplateMatchesBuildFleetPackage(t *testing.T) {
	const seed = 7
	for _, full := range []*Fleet{BuildWearFleet(seed), BuildPhoneFleet(seed), BuildLegacyPhoneFleet(seed)} {
		kind := full.Kind
		tmpl, err := NewFleetTemplate(kind, seed)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if tmpl.Kind() != kind {
			t.Fatalf("template kind = %s, want %s", tmpl.Kind(), kind)
		}
		if n, m := len(tmpl.Metadata().Packages), len(full.Packages); n != m {
			t.Fatalf("%s: template has %d packages, the full build %d", kind, n, m)
		}
		for _, p := range full.Packages {
			got, err := tmpl.Instantiate(p.Name)
			if err != nil {
				t.Fatalf("%s/%s: %v", kind, p.Name, err)
			}
			gp := got.Package(p.Name)
			if len(p.Components) != len(gp.Components) {
				t.Fatalf("%s/%s: component counts diverge", kind, p.Name)
			}
			for i, wc := range p.Components {
				gc := gp.Components[i]
				if wc.Name != gc.Name || wc.Type != gc.Type ||
					wc.Exported != gc.Exported || wc.Permission != gc.Permission {
					t.Errorf("%s/%s: manifest diverges for %v:\nfull:     %+v\ntemplate: %+v",
						kind, p.Name, wc.Name, wc, gc)
				}
				wb, gb := full.Behavior(wc.Name), got.Behavior(gc.Name)
				if gb == nil {
					t.Fatalf("%s/%s: no behaviour sampled for %v", kind, p.Name, wc.Name)
				}
				if !reflect.DeepEqual(wb.reactions, gb.reactions) {
					t.Errorf("%s/%s: reactions diverge for %v", kind, p.Name, wc.Name)
				}
				if wb.draw.Uint64() != gb.draw.Uint64() {
					t.Errorf("%s/%s: private stream diverges for %v", kind, p.Name, wc.Name)
				}
				if full.Traits(wc.Name) != got.Traits(gc.Name) {
					t.Errorf("%s/%s: traits diverge for %v", kind, p.Name, wc.Name)
				}
			}
		}
		if _, err := tmpl.Instantiate("com.missing"); err == nil {
			t.Fatal("unknown package must fail")
		}
	}
	if _, err := NewFleetTemplate(EmulatorFleet, seed); err == nil {
		t.Fatal("emulator fleet has no template build")
	}
}

// TestFleetTemplateConcurrentInstantiate exercises the shared-package
// structural sharing under the race detector: concurrent Instantiate calls
// over every package must never write shared manifest state.
func TestFleetTemplateConcurrentInstantiate(t *testing.T) {
	tmpl, err := NewFleetTemplate(WearFleet, 7)
	if err != nil {
		t.Fatal(err)
	}
	ref := tmpl.Metadata()
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, p := range ref.Packages {
				if _, err := tmpl.Instantiate(p.Name); err != nil {
					t.Errorf("%s: %v", p.Name, err)
				}
			}
		}()
	}
	wg.Wait()
}
