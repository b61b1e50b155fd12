package monkey

import (
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/intent"
	"repro/internal/manifest"
	"repro/internal/wearos"
)

func newDevWithLaunchers(t testing.TB, n int) *wearos.OS {
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

// events runs a generator and walks its log back, the way QGJ-UI reads
// Monkey's output.
func events(dev *wearos.OS, cfg Config) []Event {
	return collect(NewGenerator(dev, cfg).Log(), -1)
}

// collect walks log with Events, copying each event's slices, and stops
// after limit events (never, when limit < 0).
func collect(log string, limit int) []Event {
	var out []Event
	Events(log)(func(ev Event) bool {
		out = append(out, Event{
			Type:   ev.Type,
			Args:   append([]string(nil), ev.Args...),
			Intent: append([]string(nil), ev.Intent...),
		})
		return len(out) != limit
	})
	return out
}

// parseLog is the slice-building log parser Events replaced, kept as its
// oracle: every event in one slice, an intent line attached to the last
// event before it.
func parseLog(log string) []Event {
	out := make([]Event, 0, strings.Count(log, ":Sending "))
	var last *Event
	for rest := log; rest != ""; {
		var line string
		line, rest, _ = strings.Cut(rest, "\n")
		trimmed := strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(trimmed, ":Sending "):
			name, args, ok := strings.Cut(strings.TrimPrefix(trimmed, ":Sending "), ": ")
			if !ok {
				continue
			}
			t, ok := eventTypeByName(name)
			if !ok {
				continue
			}
			out = append(out, Event{Type: t, Args: strings.Fields(args)})
			last = &out[len(out)-1]
		case strings.HasPrefix(trimmed, "// Sending intent: am "):
			if last == nil {
				continue
			}
			last.Intent = strings.Fields(strings.TrimPrefix(trimmed, "// Sending intent: am "))
		}
	}
	return out
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
	evs := events(dev, Config{Seed: 3, Events: 10000})
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

// TestLogRoundTrip: every walked event renders back to its own log lines,
// as it is yielded, so walking loses nothing the log says.
func TestLogRoundTrip(t *testing.T) {
	dev := newDevWithLaunchers(t, 2)
	log := NewGenerator(dev, Config{Seed: 4, Events: 200}).Log()
	var sb strings.Builder
	sb.WriteString(":Monkey: seed=? count=200\n")
	n := 0
	Events(log)(func(e Event) bool {
		n++
		sb.WriteString(":Sending " + e.Type.String() + ": " + strings.Join(e.Args, " ") + "\n")
		if e.IsIntent() {
			sb.WriteString("    // Sending intent: am " + strings.Join(e.Intent, " ") + "\n")
		}
		return true
	})
	sb.WriteString("// Monkey finished\n")
	if n != 200 {
		t.Fatalf("walked %d events, generated 200", n)
	}
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

// garbageLog holds lines Events must skip: an unknown event type, and an
// intent line that belongs to the event before it.
const garbageLog = ":Monkey: seed=1\n" +
	"garbage line\n" +
	":Sending Touch: (ACTION_DOWN) 10.00 20.00\n" +
	":Sending Unknowable: x\n" +
	"    // Sending intent: am start -n com.appa/.ui.Main\n" +
	"// Monkey finished"

func TestParseLogSkipsGarbage(t *testing.T) {
	evs := collect(garbageLog, -1)
	if len(evs) != 1 {
		t.Fatalf("walked %d events, want 1", len(evs))
	}
	if evs[0].Type != Touch || !evs[0].IsIntent() {
		t.Fatalf("event = %+v", evs[0])
	}
	if want := parseLog(garbageLog); !sameEvents(evs, want) {
		t.Fatalf("Events = %+v, oracle %+v", evs, want)
	}
}

// sameEvents compares event lists field by field; a nil and an empty
// argument list are the same list.
func sameEvents(a, b []Event) bool {
	return slices.EqualFunc(a, b, func(x, y Event) bool {
		return x.Type == y.Type && slices.Equal(x.Args, y.Args) && slices.Equal(x.Intent, y.Intent)
	})
}

// FuzzEvents checks the streaming walker against the slice-building
// oracle on arbitrary text: the copied events must equal the oracle's, and
// a walk stopped after k events must yield exactly the oracle's first k.
func FuzzEvents(f *testing.F) {
	f.Add(garbageLog, uint8(0))
	f.Add(garbageLog, uint8(1))
	f.Add(NewGenerator(newDevWithLaunchers(f, 2), Config{Seed: 5, Events: 200}).Log(), uint8(7))
	f.Fuzz(func(t *testing.T, log string, k uint8) {
		want := parseLog(log)
		if got := collect(log, -1); !sameEvents(got, want) {
			t.Fatalf("Events = %+v\noracle %+v", got, want)
		}
		limit := int(k)
		if limit == 0 || limit > len(want) {
			return
		}
		if got := collect(log, limit); !sameEvents(got, want[:limit]) {
			t.Fatalf("stopped after %d: Events = %+v\noracle %+v", limit, got, want[:limit])
		}
	})
}

func TestDeterministicStreams(t *testing.T) {
	dev := newDevWithLaunchers(t, 2)
	a := NewGenerator(dev, Config{Seed: 7, Events: 50}).Log()
	b := NewGenerator(dev, Config{Seed: 7, Events: 50}).Log()
	if a != b {
		t.Fatalf("same seed, different logs:\n%s\n---\n%s", a, b)
	}
}
