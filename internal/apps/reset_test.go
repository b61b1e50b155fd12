package apps

import (
	"testing"
)

// TestFleetTemplateResetRewindsDrawStreams pins the persistent executor's
// fleet-reuse contract: a fleet whose behaviour draw streams were consumed
// by a campaign, then Reset, replays the exact stream a fresh Instantiate
// produces — for every component of every intent-fuzzed population.
func TestFleetTemplateResetRewindsDrawStreams(t *testing.T) {
	const seed = 7
	for _, kind := range []FleetKind{WearFleet, PhoneFleet, LegacyPhoneFleet} {
		tmpl, err := NewFleetTemplate(kind, seed)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		ref := tmpl.Metadata()
		for _, p := range ref.Packages {
			fresh, err := tmpl.Instantiate(p.Name)
			if err != nil {
				t.Fatalf("%s/%s: %v", kind, p.Name, err)
			}
			reused, err := tmpl.Instantiate(p.Name)
			if err != nil {
				t.Fatalf("%s/%s: %v", kind, p.Name, err)
			}
			// Consume an uneven number of draws per component — the campaign's
			// footprint the reset must erase.
			for i, c := range p.Components {
				b := reused.Behavior(c.Name)
				for range i%3 + 1 {
					b.draw.Uint64()
				}
			}
			if !tmpl.Reset(reused, p.Name) {
				t.Fatalf("%s/%s: Reset refused its own instantiation", kind, p.Name)
			}
			for _, c := range p.Components {
				fb, rb := fresh.Behavior(c.Name), reused.Behavior(c.Name)
				if f, r := fb.draw.Uint64(), rb.draw.Uint64(); f != r {
					t.Errorf("%s/%s: draw stream for %v diverges after reset: fresh=%d reset=%d",
						kind, p.Name, c.Name, f, r)
				}
			}
		}
	}
}

// TestFleetTemplateResetSanityChecks pins the refusal cases: Reset must
// report false — leaving the fleet usable — whenever the fleet was not
// produced by this template for this package.
func TestFleetTemplateResetSanityChecks(t *testing.T) {
	tmpl, err := NewFleetTemplate(WearFleet, 7)
	if err != nil {
		t.Fatal(err)
	}
	ref := tmpl.Metadata()
	pkg := ref.Packages[0].Name
	f, err := tmpl.Instantiate(pkg)
	if err != nil {
		t.Fatal(err)
	}

	if tmpl.Reset(nil, pkg) {
		t.Error("Reset accepted a nil fleet")
	}
	if tmpl.Reset(f, "com.missing") {
		t.Error("Reset accepted an unknown package")
	}
	if len(ref.Packages) > 1 {
		// f sampled behaviour for pkg only; another package's components have
		// no behaviours to rewind.
		if tmpl.Reset(f, ref.Packages[1].Name) {
			t.Error("Reset accepted a package the fleet never sampled")
		}
	}

	otherSeed, err := NewFleetTemplate(WearFleet, 8)
	if err != nil {
		t.Fatal(err)
	}
	if otherSeed.Reset(f, pkg) {
		t.Error("Reset accepted a fleet from a different seed")
	}
	otherKind, err := NewFleetTemplate(PhoneFleet, 7)
	if err != nil {
		t.Fatal(err)
	}
	if otherKind.Reset(f, pkg) {
		t.Error("Reset accepted a fleet from a different kind")
	}

	// The refused fleet stays usable: its own template still resets it.
	if !tmpl.Reset(f, pkg) {
		t.Error("fleet unusable after refused resets")
	}
}
