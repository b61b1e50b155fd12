package uifuzz

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/monkey"
	"repro/internal/wearos"
)

func newEmulator(t *testing.T) *wearos.OS {
	t.Helper()
	fleet := apps.BuildEmulatorFleet(1)
	dev := wearos.New(wearos.DefaultEmulatorConfig())
	if err := fleet.InstallInto(dev); err != nil {
		t.Fatal(err)
	}
	return dev
}

func TestRunSemiValidSmallScale(t *testing.T) {
	dev := newEmulator(t)
	out := New(dev).Run(SemiValid, Config{Seed: 1, Events: 3000})
	if out.Injected != 3000 {
		t.Fatalf("injected = %d", out.Injected)
	}
	if out.ExceptionsRaised == 0 {
		t.Fatal("semi-valid fuzzing raised no exceptions at all")
	}
	rate := out.ExceptionRate()
	if rate < 0.01 || rate > 0.08 {
		t.Fatalf("semi-valid exception rate = %.4f, want a few percent", rate)
	}
	if out.SystemCrashes != 0 {
		t.Fatalf("UI fuzzing rebooted the device %d times", out.SystemCrashes)
	}
}

func TestRunRandomNeverCrashes(t *testing.T) {
	dev := newEmulator(t)
	out := New(dev).Run(Random, Config{Seed: 1, Events: 5000})
	if out.Crashes != 0 {
		t.Fatalf("random mode crashed %d times, paper reports 0", out.Crashes)
	}
	if out.ExceptionsRaised == 0 {
		t.Fatal("random fuzzing raised no exceptions")
	}
	if out.ExceptionRate() >= 0.05 {
		t.Fatalf("random exception rate = %.4f, should be low", out.ExceptionRate())
	}
}

func TestSemiValidExceedsRandom(t *testing.T) {
	// Table V's shape: semi-valid raises more exceptions than random
	// (random mutations die in adb sanitization).
	sv := New(newEmulator(t)).Run(SemiValid, Config{Seed: 2, Events: 4000})
	rd := New(newEmulator(t)).Run(Random, Config{Seed: 2, Events: 4000})
	if sv.ExceptionsRaised <= rd.ExceptionsRaised {
		t.Fatalf("semi-valid %d <= random %d exceptions", sv.ExceptionsRaised, rd.ExceptionsRaised)
	}
}

func TestOutcomesAreDeterministic(t *testing.T) {
	a := New(newEmulator(t)).Run(SemiValid, Config{Seed: 3, Events: 2000})
	b := New(newEmulator(t)).Run(SemiValid, Config{Seed: 3, Events: 2000})
	if a.ExceptionsRaised != b.ExceptionsRaised || a.Crashes != b.Crashes {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

// TestOutcomeReportIsFinal: a run detaches its collector, so a later run
// on the same device leaves the earlier outcome's report as it was.
func TestOutcomeReportIsFinal(t *testing.T) {
	f := New(newEmulator(t))
	sv := f.Run(SemiValid, Config{Seed: 4, Events: 500})
	entries := sv.Report.Entries
	f.Run(Random, Config{Seed: 4, Events: 500})
	if sv.Report.Entries != entries {
		t.Fatalf("semi-valid report grew from %d to %d entries during the random run", entries, sv.Report.Entries)
	}
}

// walk yields evs in order, the way monkey.Events walks a log.
func walk(evs []monkey.Event) func(yield func(monkey.Event) bool) {
	return func(yield func(monkey.Event) bool) {
		for _, ev := range evs {
			if !yield(ev) {
				return
			}
		}
	}
}

func TestMutatorSemiValidUsesObservedValues(t *testing.T) {
	events := []monkey.Event{
		{Type: monkey.AppSwitch, Args: []string{"(to launcher)"},
			Intent: []string{"start", "-n", "com.a/.Main", "-a", "android.intent.action.MAIN"}},
		{Type: monkey.AppSwitch, Args: []string{"(to launcher)"},
			Intent: []string{"start", "-n", "com.b/.Main", "-a", "android.intent.action.VIEW"}},
		{Type: monkey.Touch, Args: []string{"(ACTION_DOWN)", "10.00", "20.00"}},
	}
	m := newMutator(SemiValid, 1, walk(events))
	observed := map[string]bool{"android.intent.action.MAIN": true, "android.intent.action.VIEW": true}
	for i := 0; i < 50; i++ {
		out := m.mutate(events[0])
		for j := 0; j+1 < len(out.Intent); j++ {
			if out.Intent[j] == "-a" && !observed[out.Intent[j+1]] {
				t.Fatalf("semi-valid produced unobserved action %q", out.Intent[j+1])
			}
		}
	}
}

func TestMutatorRandomProducesGarbage(t *testing.T) {
	events := []monkey.Event{
		{Type: monkey.AppSwitch, Intent: []string{"start", "-n", "com.a/.Main", "-a", "android.intent.action.MAIN"}},
	}
	m := newMutator(Random, 1, walk(events))
	sawGarbage := false
	for i := 0; i < 20; i++ {
		out := m.mutate(events[0])
		for j := 0; j+1 < len(out.Intent); j++ {
			if out.Intent[j] == "-a" && out.Intent[j+1] != "android.intent.action.MAIN" {
				sawGarbage = true
			}
		}
	}
	if !sawGarbage {
		t.Fatal("random mode never mutated the action")
	}
}

// TestRandomMutatorSkipsWalk: random mode reads no donor pool, so building
// its mutator never walks the Monkey log.
func TestRandomMutatorSkipsWalk(t *testing.T) {
	newMutator(Random, 1, func(func(monkey.Event) bool) {
		t.Fatal("a random-mode mutator walked the Monkey log")
	})
}

func TestMutatorDoesNotAliasInput(t *testing.T) {
	ev := monkey.Event{Type: monkey.Touch, Args: []string{"(ACTION_DOWN)", "1.00", "2.00"}}
	m := newMutator(Random, 1, walk([]monkey.Event{ev}))
	out := m.mutate(ev)
	out.Args[1] = "mutated-more"
	if ev.Args[1] != "1.00" {
		t.Fatal("mutate aliased the input event's args")
	}
}

func TestModeStrings(t *testing.T) {
	if SemiValid.String() != "Semi-valid" || Random.String() != "Random" {
		t.Fatal("mode strings broken")
	}
}
