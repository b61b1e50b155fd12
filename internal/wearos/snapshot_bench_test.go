package wearos

import (
	"testing"

	"repro/internal/intent"
	"repro/internal/javalang"
)

// The shard-boot microbenchmark pair isolates the device-level half of the
// farm's snapshot win: a full boot sequence (process tables, sensor
// service, system server, boot logcat) versus stamping a clone out of a
// post-boot snapshot. Telemetry is disabled to match the farm's per-shard
// device configuration.
func benchConfig() Config {
	cfg := DefaultWatchConfig()
	cfg.DisableTelemetry = true
	return cfg
}

func BenchmarkShardBootFresh(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if New(cfg) == nil {
			b.Fatal("boot failed")
		}
	}
}

func BenchmarkShardBootClone(b *testing.B) {
	snap, err := New(benchConfig()).Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if snap.Clone() == nil {
			b.Fatal("clone failed")
		}
	}
}

// benchUnit runs one triage-oracle-shaped campaign unit on a bare device:
// install, handler registration, and one crash repro — the short
// re-execution the minimizer and crash oracle pay per candidate, where a
// clone-per-execution strategy hurts most.
func benchUnit(b *testing.B, o *OS) {
	b.Helper()
	if err := o.InstallPackage(snapTestPackage()); err != nil {
		b.Fatal(err)
	}
	main := cn("com.test.app", "MainActivity")
	o.RegisterHandler(main, func(in *intent.Intent) Outcome {
		return Outcome{Thrown: javalang.New(javalang.ClassNullPointer, "null object reference")}
	}, ComponentTraits{})
	if got := o.StartActivity(explicit(main, "android.intent.action.EDIT")); got != DeliveredCrash {
		b.Fatalf("crash repro = %v", got)
	}
}

// The persistent-mode microbenchmark pair: one campaign unit per op, with
// the device provisioned by cloning the snapshot (the old per-execution
// cost) versus resetting one hot device in place (the persistent executor's
// steady state). scripts/benchgate enforces the ≥3x per-unit speedup floor
// on this ratio and freezes the reset path's near-zero steady-state
// allocation budget on BenchmarkUnitReset.
func BenchmarkUnitClone(b *testing.B) {
	snap, err := New(benchConfig()).Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchUnit(b, snap.Clone())
	}
}

func BenchmarkUnitReset(b *testing.B) {
	snap, err := New(benchConfig()).Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	dev := snap.Clone()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchUnit(b, dev)
		if !dev.ResetTo(snap) {
			b.Fatal("hot device retired mid-benchmark")
		}
	}
}
