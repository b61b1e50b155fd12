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
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	qgj "repro"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/intent"
	"repro/internal/javalang"
	"repro/internal/logcat"
	"repro/internal/manifest"
	"repro/internal/telemetry"
	"repro/internal/triage"
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
	// Warm the path: first deliveries create the process entry and resolve
	// metric handles, then the logcat ring fills. A fresh device's ring
	// allocates each chunk the first time a line reaches it, so only a full
	// ring shows the steady state every later dispatch runs in.
	for i := 0; i < 64; i++ {
		if res := dev.StartActivity(in); res != wearos.DeliveredNoEffect {
			t.Fatalf("delivery = %v", res)
		}
	}
	fillRing(dev, func() { dev.StartActivity(in) })
	allocs := testing.AllocsPerRun(2000, func() {
		dev.StartActivity(in)
	})
	// AllocsPerRun rounds down to whole allocations, so "> 0.1" demands
	// exactly zero.
	if allocs > 0.1 {
		t.Fatalf("dispatch allocates %.3f objects/op, want ~0 (hot path regression)", allocs)
	}
}

// fillRing runs step until dev's logcat ring is full, so that a measurement
// after it sees no chunk allocation. Every dispatch gate on a device from
// wearos.New fills its ring first.
func fillRing(dev *wearos.OS, step func()) {
	for dev.Logcat().Dropped() == 0 {
		step()
	}
}

// TestCloneRingAllocBudget pins the logcat ring's footprint: an Entry is at
// most 144 bytes, and filling a fresh clone's ring to DefaultCapacity
// allocates no more than its chunks, so no chunk is ever copied as the
// ring fills.
func TestCloneRingAllocBudget(t *testing.T) {
	size := unsafe.Sizeof(logcat.Entry{})
	if size > 144 {
		t.Fatalf("sizeof(logcat.Entry) = %d bytes, want at most 144", size)
	}
	snap, err := wearos.BootSnapshot(wearos.DefaultWatchConfig())
	if err != nil {
		t.Fatal(err)
	}
	ring := snap.Clone().Logcat()
	e := logcat.Entry{PID: 1000, TID: 1000, Level: logcat.Info, Tag: logcat.TagActivityManager, Message: "line"}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for ring.Len() < logcat.DefaultCapacity {
		ring.Append(e)
	}
	runtime.ReadMemStats(&after)
	// The ring holds 128-entry chunks behind a table of one pointer each,
	// which the clone allocated. A chunk of 144-byte entries holds pointers
	// and is over 512 bytes, so the allocator prefixes it with an 8-byte
	// header, which lifts it from 18,432 bytes into the 19,072-byte size
	// class.
	const chunkLen, chunkAlloc = 128, 19072
	chunks := uint64(logcat.DefaultCapacity / chunkLen)
	budget := chunks * chunkAlloc
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Fatalf("filling a clone's ring allocated %d bytes, budget %d (%d chunks of %d entries of %d bytes)",
			got, budget, chunks, chunkLen, size)
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
	fillRing(dev, func() { dev.StartActivity(in) })
	allocs := testing.AllocsPerRun(2000, func() {
		dev.StartActivity(in)
	})
	if allocs > 0.1 {
		t.Fatalf("recorder-on dispatch allocates %.3f objects/op, want ~0 (flight recorder regression)", allocs)
	}
}

// TestDispatchDenialsAndExtrasAllocFree pins the four gate denials and an
// intent carrying five FIC-D extras at zero steady-state allocations per
// dispatch, beside TestDispatchAllocFree's NoEffect case: a denial is a lazy
// log payload, not a rendered line, and a bundle is a slice.
func TestDispatchDenialsAndExtrasAllocFree(t *testing.T) {
	dev := wearos.New(wearos.DefaultWatchConfig())
	name := func(cls string) intent.ComponentName {
		return intent.ComponentName{Package: "com.bench", Class: "com.bench." + cls}
	}
	pkg := &manifest.Package{
		Name: "com.bench", Category: manifest.NotHealthFitness, Origin: manifest.ThirdParty,
		Components: []*manifest.Component{
			{Name: name("Main"), Type: manifest.Activity, Exported: true},
			{Name: name("Private"), Type: manifest.Activity},
			{Name: name("Guarded"), Type: manifest.Activity, Exported: true, Permission: "android.permission.BODY_SENSORS"},
		},
	}
	if err := dev.InstallPackage(pkg); err != nil {
		t.Fatal(err)
	}
	// The extras case refills its bundle before every dispatch, the way the
	// campaign generator reuses one pooled intent.
	extras := &intent.Intent{Action: "android.intent.action.VIEW", Component: name("Main"), SenderUID: core.QGJUID}
	keys := make([]string, 5)
	for i := range keys {
		keys[i] = fmt.Sprintf("extra_%d", i)
	}
	refill := func() {
		extras.Extras.Reset()
		for i, k := range keys {
			extras.PutExtra(k, intent.IntValue(int64(i)))
		}
	}
	cases := []struct {
		name   string
		in     *intent.Intent
		before func()
		want   wearos.DeliveryResult
	}{
		{"protected-action", &intent.Intent{Action: "android.intent.action.BATTERY_LOW", Component: name("Main"), SenderUID: core.QGJUID}, func() {}, wearos.BlockedSecurity},
		{"not-found", &intent.Intent{Action: "android.intent.action.VIEW", Component: name("Missing"), SenderUID: core.QGJUID}, func() {}, wearos.BlockedNotFound},
		{"not-exported", &intent.Intent{Action: "android.intent.action.VIEW", Component: name("Private"), SenderUID: core.QGJUID}, func() {}, wearos.BlockedSecurity},
		{"needs-permission", &intent.Intent{Action: "android.intent.action.VIEW", Component: name("Guarded"), SenderUID: core.QGJUID}, func() {}, wearos.BlockedSecurity},
		{"five-extras", extras, refill, wearos.DeliveredNoEffect},
	}
	fillRing(dev, func() { dev.StartActivity(cases[0].in) })
	for _, c := range cases {
		for range 64 {
			c.before()
			if res := dev.StartActivity(c.in); res != c.want {
				t.Fatalf("%s: delivery = %v, want %v", c.name, res, c.want)
			}
		}
		allocs := testing.AllocsPerRun(2000, func() {
			c.before()
			dev.StartActivity(c.in)
		})
		if allocs > 0.1 {
			t.Errorf("%s dispatch allocates %.3f objects/op, want 0", c.name, allocs)
		}
	}
}

// TestDispatchMeteredCollectorAllocFree pins the delivery path with a
// metering analysis collector subscribed, the way QGJ-UI and the aging
// watch observe a device: timing each consumed line into the collector's
// histogram allocates nothing.
func TestDispatchMeteredCollectorAllocFree(t *testing.T) {
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
	col := analysis.NewCollector().UseTelemetry(dev.Telemetry())
	dev.Logcat().Subscribe(col.Sink())
	in := &intent.Intent{Action: "android.intent.action.VIEW", Component: pkg.Components[0].Name, SenderUID: core.QGJUID}
	for i := 0; i < 64; i++ {
		if res := dev.StartActivity(in); res != wearos.DeliveredNoEffect {
			t.Fatalf("delivery = %v", res)
		}
	}
	fillRing(dev, func() { dev.StartActivity(in) })
	allocs := testing.AllocsPerRun(2000, func() { dev.StartActivity(in) })
	if allocs > 0.1 {
		t.Fatalf("dispatch with a metering collector allocates %.3f objects/op, want 0", allocs)
	}
	if col.Report().Entries == 0 {
		t.Fatal("collector consumed no lines")
	}
}

// TestDecodeAllocFree pins the logcat decoder at zero allocations per line
// of the injection hot path: the lazy dispatch, delivery, rejection,
// caught-exception and gate-denial payloads, and an eager permission-denial
// line as a pulled dump carries it (the decoder memoizes its component
// parse).
func TestDecodeAllocFree(t *testing.T) {
	comp := intent.ComponentName{Package: "com.bench", Class: "com.bench.ui.Main"}
	am := func(text string, p logcat.Payload) logcat.Entry {
		return logcat.Entry{PID: 1000, Tag: logcat.TagActivityManager, Message: text, Payload: p}
	}
	lines := []struct {
		name string
		e    logcat.Entry
		want logcat.EventKind
	}{
		{"dispatch", am("", logcat.Payload{
			Op: logcat.MsgDispatch, Verb: "START", Act: "android.intent.action.VIEW",
			Data: "https://foo.com/", HasData: true, Comp: comp, N: core.QGJUID,
		}), logcat.EventNone},
		{"delivering", am("", logcat.Payload{Op: logcat.MsgDelivering, Verb: "activity", Comp: comp, N: 4242}), logcat.EventDelivery},
		{"rejected", am("java.lang.IllegalArgumentException: missing extra",
			logcat.Payload{Op: logcat.MsgRejected, Comp: comp}), logcat.EventRejection},
		{"caught", logcat.Entry{PID: 4242, Tag: "com.bench", Message: "java.lang.NumberFormatException: For input string",
			Payload: logcat.Payload{Op: logcat.MsgCaught}}, logcat.EventCaught},
		{"protected", am("", logcat.Payload{Op: logcat.MsgDenyProtected, Act: "android.intent.action.BATTERY_LOW", Comp: comp, N: core.QGJUID}), logcat.EventDenial},
		{"not-exported", am("", logcat.Payload{Op: logcat.MsgDenyNotExported, Comp: comp, N: core.QGJUID}), logcat.EventDenial},
		{"needs-permission", am("android.permission.BODY_SENSORS", logcat.Payload{Op: logcat.MsgDenyPermission, Comp: comp}), logcat.EventDenial},
		{"not-found", am("", logcat.Payload{Op: logcat.MsgNotFound, Verb: "service", Comp: comp}), logcat.EventNone},
		{"denial-text", am("java.lang.SecurityException: Permission Denial: com.bench/.ui.Main not exported from uid 10123 targeting com.bench/.ui.Main",
			logcat.Payload{}), logcat.EventDenial},
	}
	for _, l := range lines {
		var d logcat.Decoder
		if ev := d.Decode(&l.e); ev.Kind != l.want {
			t.Fatalf("%s decoded to kind %d, want %d", l.name, ev.Kind, l.want)
		}
		allocs := testing.AllocsPerRun(1000, func() { d.Decode(&l.e) })
		if allocs > 0.1 {
			t.Fatalf("decoding a %s line allocates %.3f objects/op, want 0", l.name, allocs)
		}
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

// TestFailingDispatchAllocBudget pins the allocations of a crashing and of a
// rejected dispatch, with a shard's collectors subscribed the way the farm
// runs them. The failure lines are lazy payloads that decode from their
// operands, so a rejection allocates nothing, and a crash allocates four
// objects, none of them trace text: the restarted process and its "Start
// proc" line, the decoded event's class and frame lists (which share one)
// and the crash's triage record.
func TestFailingDispatchAllocBudget(t *testing.T) {
	dev := wearos.New(wearos.DefaultWatchConfig())
	name := func(cls string) intent.ComponentName {
		return intent.ComponentName{Package: "com.bench", Class: "com.bench." + cls}
	}
	pkg := &manifest.Package{
		Name: "com.bench", Category: manifest.NotHealthFitness, Origin: manifest.ThirdParty,
		Components: []*manifest.Component{
			{Name: name("Crashy"), Type: manifest.Activity, Exported: true},
			{Name: name("Picky"), Type: manifest.Activity, Exported: true},
		},
	}
	if err := dev.InstallPackage(pkg); err != nil {
		t.Fatal(err)
	}
	frame := func(method string, line int) javalang.Frame {
		return javalang.Frame{Class: "com.bench.Crashy", Method: method, File: "Crashy.java", Line: line}
	}
	crash := wearos.Outcome{Thrown: javalang.New(javalang.ClassRuntime, "Unable to start activity").
		WithStack(frame("onCreate", 40), frame("performLaunchActivity", 2817)).
		WithCause(javalang.New(javalang.ClassNullPointer, "Attempt to invoke virtual method on a null object reference").
			WithStack(frame("parse", 12), frame("onCreate", 41)))}
	reject := wearos.Outcome{Thrown: javalang.New(javalang.ClassIllegalArgument, "Unexpected value in intent"), Rejected: true}
	dev.RegisterHandler(name("Crashy"), func(*intent.Intent) wearos.Outcome { return crash }, wearos.ComponentTraits{})
	dev.RegisterHandler(name("Picky"), func(*intent.Intent) wearos.Outcome { return reject }, wearos.ComponentTraits{})
	dev.Logcat().Subscribe(triage.NewShardSink(analysis.NewCollector(), triage.NewCollector()))

	cases := []struct {
		name   string
		comp   intent.ComponentName
		want   wearos.DeliveryResult
		budget float64
	}{
		{"crash", name("Crashy"), wearos.DeliveredCrash, 4},
		{"rejected", name("Picky"), wearos.DeliveredRejected, 0},
	}
	picky := &intent.Intent{Action: "android.intent.action.VIEW", Component: name("Picky"), SenderUID: core.QGJUID}
	fillRing(dev, func() { dev.StartActivity(picky) })
	for _, c := range cases {
		in := &intent.Intent{Action: "android.intent.action.VIEW", Component: c.comp, SenderUID: core.QGJUID}
		for range 64 {
			if res := dev.StartActivity(in); res != c.want {
				t.Fatalf("%s: delivery = %v, want %v", c.name, res, c.want)
			}
		}
		allocs := testing.AllocsPerRun(2000, func() { dev.StartActivity(in) })
		if allocs > c.budget {
			t.Errorf("%s dispatch allocates %.3f objects/op, budget %.0f", c.name, allocs, c.budget)
		}
	}
}

// TestUIStudyAllocBudget bounds the whole QGJ-UI study, both mutation
// modes, in allocations per replayed event: Monkey writes its log straight
// into one builder, the log is walked back twice without an event slice
// (each event's arguments reuse one slice), the fuzzer reuses its command
// buffer and mutation scratch, plain command lines tokenize into
// substrings, and each mode's emulator keeps a one-chunk logcat ring.
func TestUIStudyAllocBudget(t *testing.T) {
	const events = 5000
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := experiments.RunUIStudy(experiments.UIOptions{Seed: 1, Events: events}); err != nil {
			t.Fatal(err)
		}
	})
	perEvent := allocs / (2 * events)
	if perEvent > 7 {
		t.Fatalf("UI study allocates %.1f objects/event (%.0f for 2 x %d events), budget is 7",
			perEvent, allocs, events)
	}
	t.Logf("UI study: %.2f allocations/event", perEvent)
}
