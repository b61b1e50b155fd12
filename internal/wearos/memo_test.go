package wearos

import (
	"testing"

	"repro/internal/intent"
	"repro/internal/javalang"
)

// memoDevice is testDevice with MainActivity crashing on EDIT, and the
// snapshot it was captured in before any delivery.
func memoDevice(t *testing.T) (*OS, *Snapshot) {
	t.Helper()
	o := testDevice(t)
	o.RegisterHandler(cn("com.test.app", "MainActivity"), func(in *intent.Intent) Outcome {
		if in.Action == "android.intent.action.EDIT" {
			return Outcome{Thrown: javalang.New(javalang.ClassNullPointer, "null object reference")}
		}
		return Outcome{}
	}, ComponentTraits{})
	snap, err := o.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return o, snap
}

// TestEnsureProcessAfterCrash: the process memo must not serve a process
// that died; the next delivery starts a new one with a new PID.
func TestEnsureProcessAfterCrash(t *testing.T) {
	o, _ := memoDevice(t)
	main := cn("com.test.app", "MainActivity")
	o.StartActivity(explicit(main, "android.intent.action.VIEW"))
	before := o.Process("com.test.app")
	o.StartActivity(explicit(main, "android.intent.action.EDIT"))
	if before.Alive || o.Process("com.test.app") != nil {
		t.Fatal("crashed process still alive")
	}
	o.StartActivity(explicit(main, "android.intent.action.VIEW"))
	after := o.Process("com.test.app")
	if after == nil || after == before || after.PID == before.PID {
		t.Fatalf("delivery after the crash ran in %+v, want a new process (crashed: %+v)", after, before)
	}
	if o.memo.proc != after {
		t.Fatal("process memo does not hold the new process")
	}
}

// TestResetToClearsMemos: a reset device must not answer a lookup from a
// memo filled before the reset.
func TestResetToClearsMemos(t *testing.T) {
	_, snap := memoDevice(t)
	dev := snap.Clone()
	dev.StartActivity(explicit(cn("com.test.app", "MainActivity"), "android.intent.action.BATTERY_LOW"))
	dev.StartActivity(explicit(cn("com.test.app", "MainActivity"), "android.intent.action.VIEW"))
	m := &dev.memo
	if m.action == "" || m.comp == nil || m.reg.h == nil || m.proc == nil {
		t.Fatalf("dispatch filled no memo: %+v", m)
	}
	if !dev.ResetTo(snap) {
		t.Fatal("ResetTo retired a clean device")
	}
	if m.action != "" || m.protected || m.comp != nil || m.reg.h != nil || m.builtIn || m.proc != nil {
		t.Fatalf("ResetTo left a memo: %+v", m)
	}
}
