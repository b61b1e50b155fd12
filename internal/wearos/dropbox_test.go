package wearos

import (
	"strings"
	"testing"
	"time"

	"repro/internal/intent"
	"repro/internal/javalang"
)

// TestDropBoxStorageFaultLosesEveryFiling pins the DropBox write path's one
// observable effect: under an installed storage fault, the crash, each ANR
// and the reboot they escalate to each log the lost write against its tag,
// and StorageDropped counts them all.
func TestDropBoxStorageFaultLosesEveryFiling(t *testing.T) {
	o := testDevice(t)
	main, worker := cn("com.test.app", "MainActivity"), cn("com.test.app", "Worker")
	o.RegisterHandler(main, func(*intent.Intent) Outcome {
		return Outcome{Thrown: javalang.New(javalang.ClassNullPointer, "npe")}
	}, ComponentTraits{})
	o.RegisterHandler(worker, func(*intent.Intent) Outcome {
		return Outcome{BusyFor: 10 * time.Second}
	}, ComponentTraits{UsesSensorManager: true})
	fault := javalang.New(javalang.ClassIllegalState, "disk full")
	o.SetStorageFault(func() *javalang.Throwable { return fault })

	if got := o.StartActivity(explicit(main, "android.intent.action.VIEW")); got != DeliveredCrash {
		t.Fatalf("crash delivery = %v", got)
	}
	anrs := DefaultAgingConfig().SensorClientANRLimit
	for i := 0; i < anrs; i++ {
		o.StartService(explicit(worker, ""))
	}
	if o.BootCount() != 2 {
		t.Fatal("device did not reboot")
	}

	dump := o.Logcat().Dump()
	for _, tc := range []struct {
		tag     DropBoxTag
		process string
		want    int
	}{
		{TagAppCrash, "com.test.app", 1},
		{TagAppANR, "com.test.app", anrs},
		{TagSystemRestart, "system_server", 1},
	} {
		line := "failed to write entry " + string(tc.tag) + " (" + tc.process + "): " + fault.Error()
		if got := strings.Count(dump, line); got != tc.want {
			t.Errorf("%q logged %d times, want %d", line, got, tc.want)
		}
	}
	if got, want := o.StorageDropped(), uint64(1+anrs+1); got != want {
		t.Fatalf("StorageDropped = %d, want %d", got, want)
	}
}
