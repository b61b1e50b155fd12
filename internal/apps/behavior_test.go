package apps

import (
	"testing"

	"repro/internal/intent"
	"repro/internal/javalang"
	"repro/internal/manifest"
	"repro/internal/rng"
	"repro/internal/wearos"
)

func newTestOS(t *testing.T) *wearos.OS {
	t.Helper()
	return wearos.New(wearos.DefaultWatchConfig())
}

func testCN() intent.ComponentName {
	return intent.ComponentName{Package: "com.x", Class: "com.x.ui.MainActivity"}
}

func mkBehavior(k DefectKind, r reaction) *behavior {
	return &behavior{
		name:      testCN(),
		reactions: map[DefectKind]reaction{k: r},
		draw:      rng.New(1),
	}
}

func mismatchIntent() *intent.Intent {
	in := &intent.Intent{Action: "android.intent.action.DIAL", Component: testCN(), SenderUID: 10100}
	in.Data, _ = intent.ParseURI("https://foo.com/")
	return in
}

func validIntent() *intent.Intent {
	in := &intent.Intent{Action: "android.intent.action.DIAL", Component: testCN(), SenderUID: 10100}
	in.Data, _ = intent.ParseURI("tel:123")
	return in
}

func TestHandlerIgnoresValidIntents(t *testing.T) {
	b := mkBehavior(KindMismatch, reaction{kind: reactCrash, class: javalang.ClassNullPointer})
	h := b.handler(manifest.Activity)
	out := h(validIntent())
	if out.Thrown != nil || out.BusyFor != 0 {
		t.Fatalf("valid intent triggered %+v", out)
	}
}

func TestHandlerCrashReaction(t *testing.T) {
	b := mkBehavior(KindMismatch, reaction{kind: reactCrash, class: javalang.ClassIllegalState})
	out := b.handler(manifest.Activity)(mismatchIntent())
	if out.Thrown == nil || out.Caught || out.Rejected {
		t.Fatalf("crash outcome = %+v", out)
	}
	if out.Thrown.Class != javalang.ClassIllegalState {
		t.Fatalf("class = %s", out.Thrown.Class)
	}
	if len(out.Thrown.Stack) == 0 {
		t.Fatal("crash throwable lacks a stack trace")
	}
	if out.Thrown.Stack[0].Class != testCN().Class {
		t.Fatalf("top frame = %+v", out.Thrown.Stack[0])
	}
}

func TestHandlerRejectAndCatchReactions(t *testing.T) {
	rej := mkBehavior(KindMismatch, reaction{kind: reactReject, class: javalang.ClassIllegalArgument})
	out := rej.handler(manifest.Service)(mismatchIntent())
	if out.Thrown == nil || !out.Rejected || out.Caught {
		t.Fatalf("reject outcome = %+v", out)
	}
	cat := mkBehavior(KindMismatch, reaction{kind: reactCatch, class: javalang.ClassIllegalArgument})
	out = cat.handler(manifest.Service)(mismatchIntent())
	if out.Thrown == nil || !out.Caught || out.Rejected {
		t.Fatalf("catch outcome = %+v", out)
	}
}

func TestHandlerHangReaction(t *testing.T) {
	b := mkBehavior(KindMismatch, reaction{kind: reactHang, busy: scenarioHangBusy, class: javalang.ClassIllegalState})
	out := b.handler(manifest.Service)(mismatchIntent())
	if out.BusyFor != scenarioHangBusy {
		t.Fatalf("BusyFor = %v", out.BusyFor)
	}
	if out.Thrown == nil || out.Thrown.Class != javalang.ClassIllegalState {
		t.Fatalf("hang exception = %v", out.Thrown)
	}
}

func TestStochasticReactionProbability(t *testing.T) {
	b := mkBehavior(KindMismatch, reaction{
		kind: reactCatch, class: javalang.ClassIllegalArgument, prob: 0.25,
	})
	b.draw = rng.New(42)
	h := b.handler(manifest.Activity)
	fired := 0
	const n = 4000
	for i := 0; i < n; i++ {
		if out := h(mismatchIntent()); out.Thrown != nil {
			fired++
		}
	}
	got := float64(fired) / n
	if got < 0.20 || got > 0.30 {
		t.Fatalf("stochastic reaction fired %.3f, want ~0.25", got)
	}
}

func TestSampleBehaviorNonCrashyNeverCrashes(t *testing.T) {
	r := rng.New(5)
	for i := 0; i < 200; i++ {
		b := sampleBehavior(testCN(), &wearThirdPartyParams, false, r.Split(string(rune(i))))
		for k, rc := range b.reactions {
			if rc.kind == reactCrash {
				t.Fatalf("non-crashy component sampled a crash reaction for %v", k)
			}
		}
	}
}

func TestSampleBehaviorCrashRateInBand(t *testing.T) {
	// Third-party crashy components should crash on at least one kind with
	// probability ~1-(1-q)^7 for the blended qs; verify the Monte Carlo
	// rate is in a plausible band (15-35%).
	r := rng.New(11)
	crashComps := 0
	const n = 2000
	for i := 0; i < n; i++ {
		b := sampleBehavior(testCN(), &wearThirdPartyParams, true, r.Split(string(rune(i))))
		for _, rc := range b.reactions {
			if rc.kind == reactCrash {
				crashComps++
				break
			}
		}
	}
	got := float64(crashComps) / n
	if got < 0.15 || got > 0.35 {
		t.Fatalf("crashy third-party component crash rate = %.3f", got)
	}
}

func TestMessageShapes(t *testing.T) {
	in := mismatchIntent()
	if got := message(javalang.ClassArithmetic, KindMismatch, in); got != "divide by zero" {
		t.Errorf("arithmetic message = %q", got)
	}
	if got := message(javalang.ClassNullPointer, KindNullExtra, in); got == "" {
		t.Error("empty NPE message")
	}
}

// isUIProfile reports whether b has the launcher profile uiBehavior
// builds: catch reactions at the random-mutation probability on both random
// kinds, and nothing but per-delivery (probabilistic) catches and crashes.
// Sampled fleet behaviours always fire (prob 0).
func isUIProfile(b *behavior) bool {
	for _, kind := range []DefectKind{KindRandomAction, KindRandomData} {
		if rc, ok := b.reactions[kind]; !ok || rc.kind != reactCatch || rc.prob != uiIntentExceptionProbRandom {
			return false
		}
	}
	for _, rc := range b.reactions {
		if rc.prob <= 0 || rc.kind != reactCatch && rc.kind != reactCrash {
			return false
		}
	}
	return true
}

func TestUIBehaviorShape(t *testing.T) {
	r := rng.New(3)
	sawCrashPath, sawCatchPath := false, false
	for i := 0; i < 50; i++ {
		b := uiBehavior(testCN(), r.Split(string(rune('a'+i))))
		if !isUIProfile(b) {
			t.Fatalf("uiBehavior built a behaviour of another shape: %+v", b.reactions)
		}
		for _, rc := range b.reactions {
			switch rc.kind {
			case reactCrash:
				sawCrashPath = true
				if rc.prob != uiIntentCrashProbSemiValid {
					t.Fatalf("UI crash prob = %v", rc.prob)
				}
			case reactCatch:
				sawCatchPath = true
				if rc.prob <= 0 {
					t.Fatal("UI catch reaction is deterministic")
				}
			case reactReject, reactHang:
				t.Fatalf("UI profile sampled unexpected reaction %v", rc.kind)
			}
		}
	}
	if !sawCrashPath || !sawCatchPath {
		t.Fatalf("UI profiles missing paths: crash=%v catch=%v", sawCrashPath, sawCatchPath)
	}
}

func TestEndToEndCrashThroughOS(t *testing.T) {
	f := BuildWearFleet(1)
	dev := newTestOS(t)
	if err := f.InstallInto(dev); err != nil {
		t.Fatal(err)
	}
	// The Google Fit scenario component crashes with IAE on an ALL_APPS
	// intent that lacks its expected payload (the paper's concrete case).
	cn := f.nthComponent("com.google.android.apps.fitness", manifest.Activity, 2)
	in := &intent.Intent{
		Action:    "android.intent.action.ALL_APPS", // expects data; none given
		Component: cn,
		SenderUID: wearos.UIDAppBase + 100,
	}
	if got := dev.StartActivity(in); got != wearos.DeliveredCrash {
		t.Fatalf("delivery = %v, want crash", got)
	}
}
