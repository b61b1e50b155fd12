// Allocation-regression gate for the injection hot path. These tests pin
// the allocation counts the perf work achieved so a future change cannot
// silently reintroduce per-intent garbage: the steady-state dispatch path
// must stay allocation-free, and campaign generation must stay within a
// small fixed budget per component sweep.
//
// AllocsPerRun is meaningless under the race detector (the instrumentation
// itself allocates), so the whole file is compiled out of -race runs; the
// separate non-race invocation in scripts/verify.sh keeps the gate active.
//
//go:build !race

package qgj_test

import (
	"testing"

	qgj "repro"
	"repro/internal/core"
	"repro/internal/intent"
	"repro/internal/manifest"
	"repro/internal/telemetry"
	"repro/internal/wearos"
)

// TestDispatchAllocFree pins the fully-instrumented delivery path
// (permission gate, resolution, lazy logging, telemetry counters) at zero
// steady-state allocations per intent.
func TestDispatchAllocFree(t *testing.T) {
	dev := wearos.New(wearos.DefaultWatchConfig())
	pkg := &manifest.Package{
		Name: "com.bench", Category: manifest.NotHealthFitness, Origin: manifest.ThirdParty,
		Components: []*manifest.Component{{
			Name: intent.ComponentName{Package: "com.bench", Class: "com.bench.ui.Main"},
			Type: manifest.Activity, Exported: true,
		}},
	}
	if err := dev.InstallPackage(pkg); err != nil {
		t.Fatal(err)
	}
	in := &intent.Intent{
		Action:    "android.intent.action.VIEW",
		Component: pkg.Components[0].Name,
		SenderUID: core.QGJUID,
	}
	var ok bool
	in.Data, ok = intent.ParseURI("https://foo.com/")
	if !ok {
		t.Fatal("bad URI")
	}
	// Warm the path: first deliveries create the process entry, resolve
	// metric handles, and fill the logcat ring's backing array.
	for i := 0; i < 64; i++ {
		if res := dev.StartActivity(in); res != wearos.DeliveredNoEffect {
			t.Fatalf("delivery = %v", res)
		}
	}
	allocs := testing.AllocsPerRun(2000, func() {
		dev.StartActivity(in)
	})
	// AllocsPerRun rounds down to whole allocations, so "> 0.1" demands
	// exactly zero.
	if allocs > 0.1 {
		t.Fatalf("dispatch allocates %.3f objects/op, want ~0 (hot path regression)", allocs)
	}
}

// TestDispatchRecorderAllocFree pins the same delivery path with the
// flight recorder attached (the farm's triage configuration): the
// per-dispatch event record is a slot write into a preallocated ring and
// must not add a single steady-state allocation.
func TestDispatchRecorderAllocFree(t *testing.T) {
	dev := wearos.New(wearos.DefaultWatchConfig())
	pkg := &manifest.Package{
		Name: "com.bench", Category: manifest.NotHealthFitness, Origin: manifest.ThirdParty,
		Components: []*manifest.Component{{
			Name: intent.ComponentName{Package: "com.bench", Class: "com.bench.ui.Main"},
			Type: manifest.Activity, Exported: true,
		}},
	}
	if err := dev.InstallPackage(pkg); err != nil {
		t.Fatal(err)
	}
	dev.SetFlightRecorder(telemetry.NewRecorder(0))
	in := &intent.Intent{
		Action:    "android.intent.action.VIEW",
		Component: pkg.Components[0].Name,
		SenderUID: core.QGJUID,
	}
	var ok bool
	in.Data, ok = intent.ParseURI("https://foo.com/")
	if !ok {
		t.Fatal("bad URI")
	}
	for i := 0; i < 64; i++ {
		if res := dev.StartActivity(in); res != wearos.DeliveredNoEffect {
			t.Fatalf("delivery = %v", res)
		}
	}
	allocs := testing.AllocsPerRun(2000, func() {
		dev.StartActivity(in)
	})
	if allocs > 0.1 {
		t.Fatalf("recorder-on dispatch allocates %.3f objects/op, want ~0 (flight recorder regression)", allocs)
	}
}

// TestGenerationAllocBudget bounds the allocations of a whole campaign-A
// stream for one component. The pooled working intent makes the steady
// state nearly free; the budget covers the one-time RNG split and pool
// interactions.
func TestGenerationAllocBudget(t *testing.T) {
	target := intent.ComponentName{Package: "com.bench", Class: "com.bench.ui.Main"}
	cfg := core.GeneratorConfig{Seed: 1}
	n := core.CampaignA.CountPerComponent(cfg)
	if n == 0 {
		t.Fatal("empty campaign")
	}
	// Warm the strided-catalog caches and the intent pool.
	core.CampaignA.Generate(target, cfg, core.QGJUID, func(in *intent.Intent) {})

	allocs := testing.AllocsPerRun(20, func() {
		core.CampaignA.Generate(target, cfg, core.QGJUID, func(in *intent.Intent) {})
	})
	perIntent := allocs / float64(n)
	// Budget: the per-stream fixed cost (RNG split key + source) spread over
	// the stream, and nothing per intent.
	if perIntent > 0.05 {
		t.Fatalf("campaign A generation allocates %.4f objects/intent (%.0f per stream of %d), want ~0",
			perIntent, allocs, n)
	}
}

// TestCampaignSweepAllocBudget bounds a full instrumented FuzzApp sweep —
// generation, dispatch, logging, telemetry, pacing — to under one alloc per
// injected intent (measured ~0.23: the per-component generator setup and
// the per-batch result map writes).
func TestCampaignSweepAllocBudget(t *testing.T) {
	dev := wearos.New(wearos.DefaultWatchConfig())
	fleet := qgj.BuildWearFleet(1)
	if err := fleet.InstallInto(dev); err != nil {
		t.Fatal(err)
	}
	inj := &core.Injector{Dev: dev, Cfg: core.GeneratorConfig{ActionStride: 8, SchemeStride: 8}}
	warm := inj.FuzzApp(core.CampaignA, fleet.Packages[0])
	if warm.Sent == 0 {
		t.Fatal("campaign sent nothing")
	}
	allocs := testing.AllocsPerRun(5, func() {
		inj.FuzzApp(core.CampaignA, fleet.Packages[0])
	})
	perIntent := allocs / float64(warm.Sent)
	if perIntent > 1 {
		t.Fatalf("campaign sweep allocates %.2f objects/intent (%.0f per sweep of %d), budget is 1",
			perIntent, allocs, warm.Sent)
	}
}
