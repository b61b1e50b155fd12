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

// wantLastDelivered checks LastDelivered(pid) against want (zero: none).
func wantLastDelivered(t *testing.T, o *OS, pid int, want intent.ComponentName) {
	t.Helper()
	got, ok := o.LastDelivered(pid)
	if ok != !want.IsZero() || got != want {
		t.Fatalf("LastDelivered(%d) = %v %v, want %v", pid, got, ok, want)
	}
}

// TestLastDeliveredAcrossCrashRebootReset pins LastDelivered's lifetime: a
// crashed process's PID still answers with the component that crashed it,
// a reboot forgets every pre-reboot PID, and so does ResetTo.
func TestLastDeliveredAcrossCrashRebootReset(t *testing.T) {
	o, snap := memoDevice(t)
	main, worker := cn("com.test.app", "MainActivity"), cn("com.test.app", "Worker")

	o.StartService(explicit(worker, ""))
	pid1 := o.Process("com.test.app").PID
	wantLastDelivered(t, o, pid1, worker)
	if got := o.StartActivity(explicit(main, "android.intent.action.EDIT")); got != DeliveredCrash {
		t.Fatalf("EDIT result = %v, want crash", got)
	}
	wantLastDelivered(t, o, pid1, main)

	o.StartService(explicit(worker, ""))
	pid2 := o.Process("com.test.app").PID
	if pid2 == pid1 {
		t.Fatalf("delivery after the crash reused dead PID %d", pid1)
	}
	wantLastDelivered(t, o, pid2, worker)
	wantLastDelivered(t, o, pid1, main)

	o.SystemServer().RecordCoreServiceDown("sensorservice", javalang.SIGABRT)
	if !o.SystemServer().MaybeReboot() {
		t.Fatal("core service death did not reboot the device")
	}
	wantLastDelivered(t, o, pid1, intent.ComponentName{})
	wantLastDelivered(t, o, pid2, intent.ComponentName{})
	o.StartActivity(explicit(main, "android.intent.action.VIEW"))
	pid3 := o.Process("com.test.app").PID
	wantLastDelivered(t, o, pid3, main)

	dev := snap.Clone()
	dev.StartService(explicit(worker, ""))
	pid := dev.Process("com.test.app").PID
	wantLastDelivered(t, dev, pid, worker)
	if !dev.ResetTo(snap) {
		t.Fatal("ResetTo retired a clean device")
	}
	wantLastDelivered(t, dev, pid, intent.ComponentName{})
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
