package sensors

import (
	"testing"
	"time"

	"repro/internal/javalang"
	"repro/internal/logcat"
	"repro/internal/vclock"
)

func newTestService(t *testing.T) (*Service, *logcat.Buffer) {
	t.Helper()
	clk := vclock.NewVirtual(time.Time{})
	buf := logcat.NewBuffer(256)
	log := logcat.NewLogger(buf, clk.Now)
	return NewService(1199, log), buf
}

func TestRegisterAndRead(t *testing.T) {
	svc, _ := newTestService(t)
	const client = "com.fit.app"
	if thr := svc.Register(client, HeartRate); thr != nil {
		t.Fatalf("register: %v", thr)
	}
	v, thr := svc.Read(client, HeartRate)
	if thr != nil {
		t.Fatalf("read: %v", thr)
	}
	if v <= 0 {
		t.Fatalf("heart rate sample = %v", v)
	}
}

func TestReadWithoutRegistration(t *testing.T) {
	svc, _ := newTestService(t)
	const client = "com.fit.app"
	_, thr := svc.Read(client, HeartRate)
	if thr == nil || thr.Class != javalang.ClassIllegalState {
		t.Fatalf("expected IllegalStateException, got %v", thr)
	}
}

func TestAbortKillsService(t *testing.T) {
	svc, buf := newTestService(t)
	const client = "com.fit.app"
	if thr := svc.Register(client, HeartRate); thr != nil {
		t.Fatal(thr)
	}
	var gotSignal string
	svc.OnAbort(func(sig string) { gotSignal = sig })
	svc.Abort(javalang.SIGABRT)

	if svc.State() != ServiceAborted {
		t.Fatal("service not aborted")
	}
	if gotSignal != javalang.SIGABRT {
		t.Fatalf("system server saw signal %q", gotSignal)
	}
	// Registered clients now get DeadObjectException.
	if _, thr := svc.Read(client, HeartRate); thr == nil || thr.Class != javalang.ClassDeadObject {
		t.Fatalf("expected DeadObjectException, got %v", thr)
	}
	if thr := svc.Register(client, HeartRate); thr == nil || thr.Class != javalang.ClassDeadObject {
		t.Fatalf("register on dead service: %v", thr)
	}
	// The native crash dump must be in the log (the analyzer keys off it).
	found := false
	for _, e := range buf.Snapshot() {
		if e.Tag == logcat.TagDEBUG {
			found = true
		}
	}
	if !found {
		t.Fatal("no native crash dump logged")
	}
}

func TestAbortIsIdempotent(t *testing.T) {
	svc, _ := newTestService(t)
	n := 0
	svc.OnAbort(func(string) { n++ })
	svc.Abort(javalang.SIGABRT)
	svc.Abort(javalang.SIGABRT)
	if n != 1 {
		t.Fatalf("onAbort fired %d times", n)
	}
}

func TestRestartClearsState(t *testing.T) {
	svc, _ := newTestService(t)
	const client = "c"
	if thr := svc.Register(client, HeartRate); thr != nil {
		t.Fatal(thr)
	}
	svc.Abort(javalang.SIGABRT)
	svc.Restart(2230)
	if svc.State() != ServiceRunning {
		t.Fatal("service not running after restart")
	}
	if svc.PID() != 2230 {
		t.Fatalf("PID = %d", svc.PID())
	}
	if svc.Listeners(client) != 0 {
		t.Fatal("listeners survived restart")
	}
}

func TestSensorNames(t *testing.T) {
	if HeartRate.String() != "android.sensor.heart_rate" {
		t.Errorf("HeartRate name = %q", HeartRate.String())
	}
	if n := Type(0).String(); n != "android.sensor.unknown" {
		t.Errorf("unknown sensor name = %q", n)
	}
}
