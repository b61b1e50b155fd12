package monkey

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/intent"
	"repro/internal/manifest"
	"repro/internal/wearos"
)

func newDevWithLaunchers(t *testing.T, n int) *wearos.OS {
	t.Helper()
	dev := wearos.New(wearos.DefaultEmulatorConfig())
	for i := 0; i < n; i++ {
		pkg := "com.app" + string(rune('a'+i))
		p := &manifest.Package{
			Name:     pkg,
			Category: manifest.NotHealthFitness,
			Origin:   manifest.ThirdParty,
			Components: []*manifest.Component{
				{
					Name: intent.ComponentName{Package: pkg, Class: pkg + ".ui.Main"},
					Type: manifest.Activity, Exported: true, MainLauncher: true,
				},
			},
		}
		if err := dev.InstallPackage(p); err != nil {
			t.Fatal(err)
		}
	}
	return dev
}

// events runs a generator and parses its log back, the way QGJ-UI reads
// Monkey's output.
func events(dev *wearos.OS, cfg Config) []Event {
	return ParseLog(NewGenerator(dev, cfg).Log())
}

func TestGenerateEqualPercentages(t *testing.T) {
	dev := newDevWithLaunchers(t, 3)
	evs := events(dev, Config{Seed: 1, Events: 1000})
	if len(evs) != 1000 {
		t.Fatalf("generated %d events", len(evs))
	}
	counts := map[EventType]int{}
	for _, e := range evs {
		counts[e.Type]++
	}
	for _, ty := range AllEventTypes {
		if counts[ty] != 100 {
			t.Errorf("event type %s count = %d, want 100 (equal percentages)", ty, counts[ty])
		}
	}
}

func TestAppSwitchCarriesIntent(t *testing.T) {
	dev := newDevWithLaunchers(t, 2)
	for _, e := range events(dev, Config{Seed: 2, Events: 100}) {
		if e.Type == AppSwitch && !e.IsIntent() {
			t.Fatal("AppSwitch event without intent")
		}
	}
}

func TestIntentRatio(t *testing.T) {
	dev := newDevWithLaunchers(t, 2)
	evs := events(dev, Config{Seed: 3, Events: 10000, IntentRatio: 0.25})
	intents := 0
	for _, e := range evs {
		if e.IsIntent() {
			intents++
		}
	}
	share := float64(intents) / float64(len(evs))
	// AppSwitch (10%) always + 25% of the remaining 90% ≈ 32.5%.
	if share < 0.28 || share > 0.38 {
		t.Fatalf("intent share = %.3f, want ~0.325", share)
	}
}

// TestLogRoundTrip: every parsed event renders back to its own log lines,
// so parsing loses nothing the log says.
func TestLogRoundTrip(t *testing.T) {
	dev := newDevWithLaunchers(t, 2)
	log := NewGenerator(dev, Config{Seed: 4, Events: 200}).Log()
	evs := ParseLog(log)
	if len(evs) != 200 {
		t.Fatalf("parsed %d events, generated 200", len(evs))
	}
	var sb strings.Builder
	sb.WriteString(":Monkey: seed=? count=200\n")
	for _, e := range evs {
		sb.WriteString(":Sending " + e.Type.String() + ": " + strings.Join(e.Args, " ") + "\n")
		if e.IsIntent() {
			sb.WriteString("    // Sending intent: am " + strings.Join(e.Intent, " ") + "\n")
		}
	}
	sb.WriteString("// Monkey finished\n")
	if sb.String() != log {
		t.Fatalf("parsed events render a different log:\n%s\nwant:\n%s", sb.String(), log)
	}
}

// TestLogGolden pins the Monkey log of the emulator fleet byte for byte:
// Log must make the same RNG draws, in the same order, and write the same
// text as the event-list renderer it replaced.
func TestLogGolden(t *testing.T) {
	dev := wearos.New(wearos.DefaultEmulatorConfig())
	if err := apps.BuildEmulatorFleet(1).InstallInto(dev); err != nil {
		t.Fatal(err)
	}
	log := NewGenerator(dev, Config{Seed: 1, Events: 1000}).Log()
	sum := sha256.Sum256([]byte(log))
	const want = "25f729dd4b650a6838c13266f0a06f48c3395ce2ba08f800b312706ceba491a6"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("Monkey log sha256 = %s, want %s (%d bytes)", got, want, len(log))
	}
}

func TestParseLogSkipsGarbage(t *testing.T) {
	log := ":Monkey: seed=1\n" +
		"garbage line\n" +
		":Sending Touch: (ACTION_DOWN) 10.00 20.00\n" +
		":Sending Unknowable: x\n" +
		"    // Sending intent: am start -n com.appa/.ui.Main\n" +
		"// Monkey finished"
	evs := ParseLog(log)
	if len(evs) != 1 {
		t.Fatalf("parsed %d events, want 1", len(evs))
	}
	if evs[0].Type != Touch || !evs[0].IsIntent() {
		t.Fatalf("event = %+v", evs[0])
	}
}

func TestDeterministicStreams(t *testing.T) {
	dev := newDevWithLaunchers(t, 2)
	a := NewGenerator(dev, Config{Seed: 7, Events: 50}).Log()
	b := NewGenerator(dev, Config{Seed: 7, Events: 50}).Log()
	if a != b {
		t.Fatalf("same seed, different logs:\n%s\n---\n%s", a, b)
	}
}
