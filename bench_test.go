// Benchmark harness: one benchmark per table and figure in the paper's
// evaluation section. Table benches regenerate their artifact end to end
// (fleet -> campaigns -> logs -> analysis) at a reduced-but-representative
// scale per iteration; figure benches run the aggregation queries against a
// cached study computed once. Micro-benches cover the injection hot path.
//
// Run with: go test -bench=. -benchmem
package qgj_test

import (
	"sync"
	"testing"

	qgj "repro"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faultinject"
	"repro/internal/intent"
	"repro/internal/logcat"
	"repro/internal/manifest"
	"repro/internal/notify"
	"repro/internal/telemetry"
	"repro/internal/wearos"
)

// benchGen is the scaled-down generator used by per-iteration study
// benches (~1/64 of campaign A's full volume).
var benchGen = experiments.QuickGen(8)

// cachedStudy runs one reduced wear study for the figure benches.
var (
	studyOnce sync.Once
	study     *experiments.StudyResult
)

func cachedWearStudy(b *testing.B) *experiments.StudyResult {
	b.Helper()
	studyOnce.Do(func() {
		sr, err := experiments.RunWearStudy(experiments.Options{Seed: 1, Gen: benchGen})
		if err != nil {
			b.Fatal(err)
		}
		study = sr
	})
	return study
}

// BenchmarkTableI_CampaignGeneration regenerates Table I's workload: the
// four campaigns' intent streams for one component at full paper scale.
func BenchmarkTableI_CampaignGeneration(b *testing.B) {
	target := intent.ComponentName{Package: "com.bench", Class: "com.bench.ui.Main"}
	cfg := core.GeneratorConfig{Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := 0
		for _, c := range core.AllCampaigns {
			c.Generate(target, cfg, core.QGJUID, func(in *intent.Intent) { n++ })
		}
		if n == 0 {
			b.Fatal("generated nothing")
		}
	}
}

// BenchmarkTableII_FleetConstruction regenerates Table II: building the
// 46-app wearable population with all behaviour models.
func BenchmarkTableII_FleetConstruction(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := qgj.BuildWearFleet(uint64(i + 1))
		if s := f.Stats(0, 0); s.Apps != 46 {
			b.Fatalf("apps = %d", s.Apps)
		}
	}
}

// BenchmarkTableIII_BehaviorDistribution regenerates Table III: the four
// campaigns against the full wear fleet (reduced volume), classified from
// logs.
func BenchmarkTableIII_BehaviorDistribution(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sr, err := experiments.RunWearStudy(experiments.Options{Seed: 1, Gen: benchGen})
		if err != nil {
			b.Fatal(err)
		}
		rows := experiments.TableIII(sr)
		if len(rows) != 4 {
			b.Fatal("campaign rows missing")
		}
	}
}

// BenchmarkTableIV_PhoneCrashes regenerates Table IV: the phone-comparison
// study and its crash distribution.
func BenchmarkTableIV_PhoneCrashes(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sr, err := experiments.RunPhoneStudy(experiments.Options{Seed: 1, Gen: benchGen})
		if err != nil {
			b.Fatal(err)
		}
		if _, _, total := experiments.TableIV(sr); total == 0 {
			b.Fatal("no crashes measured")
		}
	}
}

// BenchmarkTableV_UIFuzz regenerates Table V: both QGJ-UI mutation modes
// (reduced event volume).
func BenchmarkTableV_UIFuzz(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunUIStudy(experiments.UIOptions{Seed: 1, Events: 4000})
		if err != nil {
			b.Fatal(err)
		}
		if rows := experiments.TableV(res); len(rows) != 2 {
			b.Fatal("ui rows missing")
		}
	}
}

// BenchmarkFig2_ExceptionTypes regenerates Fig. 2's distribution from the
// cached study.
func BenchmarkFig2_ExceptionTypes(b *testing.B) {
	sr := cachedWearStudy(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := experiments.Fig2(sr)
		if len(s.ByType) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFig3a_Manifestations regenerates Fig. 3a.
func BenchmarkFig3a_Manifestations(b *testing.B) {
	sr := cachedWearStudy(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mc := experiments.Fig3a(sr)
		if mc[analysis.ManifestNoEffect] == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFig3b_RootCause regenerates Fig. 3b (blame analysis with equal
// splitting).
func BenchmarkFig3b_RootCause(b *testing.B) {
	sr := cachedWearStudy(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blame := experiments.Fig3b(sr)
		if len(blame) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFig4_CrashByOrigin regenerates Fig. 4 (built-in vs third-party).
func BenchmarkFig4_CrashByOrigin(b *testing.B) {
	sr := cachedWearStudy(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f4 := experiments.Fig4(sr)
		if len(f4.CrashAppRate) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// --- Micro-benchmarks on the injection hot path -----------------------------

// BenchmarkDispatchNoEffect measures one intent delivery through the full
// OS path (permission check, resolution, handler, logging) with telemetry
// on (the default).
func BenchmarkDispatchNoEffect(b *testing.B) {
	benchmarkDispatch(b, wearos.DefaultWatchConfig())
}

// BenchmarkDispatchNoTelemetry is the same delivery with the metric
// registry disabled. Comparing against
// BenchmarkDispatchNoEffect bounds the instrumentation overhead on the hot
// path; the budget is <5% (docs/observability.md).
func BenchmarkDispatchNoTelemetry(b *testing.B) {
	cfg := wearos.DefaultWatchConfig()
	cfg.DisableTelemetry = true
	benchmarkDispatch(b, cfg)
}

// BenchmarkDispatchRecorder is the default delivery with the flight
// recorder attached — the farm's triage configuration. Comparing against
// BenchmarkDispatchNoEffect bounds the recorder's overhead on the hot
// path; the budget is <5% (docs/observability.md) and the path must stay
// allocation-free.
func BenchmarkDispatchRecorder(b *testing.B) {
	benchmarkDispatch(b, wearos.DefaultWatchConfig(), func(dev *wearos.OS) {
		dev.SetFlightRecorder(telemetry.NewRecorder(0))
	})
}

// BenchmarkDispatchFaultHooks is the default delivery with a fault-injection
// engine attached whose next window never opens — campaign F's hot path for
// every dispatch outside a fault window. Comparing against
// BenchmarkDispatchNoEffect bounds the dormant hook overhead; the budget is
// <5% (docs/faults.md).
func BenchmarkDispatchFaultHooks(b *testing.B) {
	benchmarkDispatch(b, wearos.DefaultWatchConfig(), func(dev *wearos.OS) {
		plan := &faultinject.Plan{Seed: 1, Budget: 1 << 40, Windows: []faultinject.Window{
			{Kind: faultinject.BinderDead, Start: 1 << 39, End: 1<<39 + 4, Recover: true},
		}}
		eng := faultinject.NewEngine(dev, plan, "com.bench")
		dev.SetFaultHooks(wearos.FaultHooks{Pre: eng.Pre, Post: eng.Post})
	})
}

func benchmarkDispatch(b *testing.B, cfg wearos.Config, setup ...func(*wearos.OS)) {
	dev := wearos.New(cfg)
	pkg := &manifest.Package{
		Name: "com.bench", Category: manifest.NotHealthFitness, Origin: manifest.ThirdParty,
		Components: []*manifest.Component{{
			Name: intent.ComponentName{Package: "com.bench", Class: "com.bench.ui.Main"},
			Type: manifest.Activity, Exported: true,
		}},
	}
	if err := dev.InstallPackage(pkg); err != nil {
		b.Fatal(err)
	}
	for _, fn := range setup {
		fn(dev)
	}
	in := &intent.Intent{
		Action:    "android.intent.action.VIEW",
		Component: pkg.Components[0].Name,
		SenderUID: core.QGJUID,
	}
	in.Data, _ = intent.ParseURI("https://foo.com/")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := dev.StartActivity(in); res != wearos.DeliveredNoEffect {
			b.Fatalf("delivery = %v", res)
		}
	}
}

// BenchmarkCampaignInstrumented and BenchmarkCampaignNoTelemetry run one
// reduced campaign A app-sweep per iteration, with and without the metric
// registry, proving the instrumented pipeline stays within the overhead
// budget at campaign scale (not just per dispatch).
func BenchmarkCampaignInstrumented(b *testing.B) { benchmarkCampaign(b, false) }

func BenchmarkCampaignNoTelemetry(b *testing.B) { benchmarkCampaign(b, true) }

func benchmarkCampaign(b *testing.B, disableTelemetry bool) {
	// One device for the whole benchmark: per-iteration device construction
	// would dominate the GC profile and drown the instrumentation delta this
	// benchmark exists to measure. Both variants execute the identical intent
	// sequence (telemetry does not perturb the simulation).
	cfg := wearos.DefaultWatchConfig()
	cfg.DisableTelemetry = disableTelemetry
	dev := wearos.New(cfg)
	fleet := qgj.BuildWearFleet(1)
	if err := fleet.InstallInto(dev); err != nil {
		b.Fatal(err)
	}
	inj := &core.Injector{Dev: dev, Cfg: benchGen}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run := inj.FuzzApp(core.CampaignA, fleet.Packages[0])
		if run.Sent == 0 {
			b.Fatal("campaign sent nothing")
		}
	}
}

// BenchmarkCollectorConsume measures the streaming analyzer on a
// representative log slice.
func BenchmarkCollectorConsume(b *testing.B) {
	dev := wearos.New(wearos.DefaultWatchConfig())
	fleet := qgj.BuildWearFleet(1)
	if err := fleet.InstallInto(dev); err != nil {
		b.Fatal(err)
	}
	inj := &core.Injector{Dev: dev, Cfg: experiments.QuickGen(10)}
	inj.FuzzApp(core.CampaignA, fleet.Packages[0])
	entries := dev.Logcat().Snapshot()
	if len(entries) == 0 {
		b.Fatal("no log entries")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col := analysis.NewCollector()
		col.ConsumeAll(entries)
	}
	b.SetBytes(int64(len(entries)))
}

// BenchmarkLogcatAppend measures the log substrate itself.
func BenchmarkLogcatAppend(b *testing.B) {
	buf := logcat.NewBuffer(1 << 14)
	e := logcat.Entry{PID: 1000, TID: 1000, Level: logcat.Info,
		Tag: logcat.TagActivityManager, Message: "START u0 {act=android.intent.action.VIEW}"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Append(e)
	}
}

// BenchmarkLogcatFormatParse measures the threadtime format round trip the
// pull path exercises.
func BenchmarkLogcatFormatParse(b *testing.B) {
	e := logcat.Entry{PID: 1234, TID: 1240, Level: logcat.Error,
		Tag: logcat.TagAndroidRuntime, Message: "FATAL EXCEPTION: main"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		line := e.Format()
		if _, ok := logcat.ParseLine(line, 0); !ok {
			b.Fatal("parse failed")
		}
	}
}

// BenchmarkIntentString measures the intent flattening used on every
// logged delivery.
func BenchmarkIntentString(b *testing.B) {
	in := &intent.Intent{
		Action:    "android.intent.action.DIAL",
		Component: intent.ComponentName{Package: "com.bench", Class: "com.bench.ui.Main"},
	}
	in.Data, _ = intent.ParseURI("tel:123")
	in.PutExtra("k", intent.StringValue("v"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if s := in.String(); len(s) == 0 {
			b.Fatal("empty")
		}
	}
}

// --- Extension benches --------------------------------------------------------

// BenchmarkAblationAging regenerates the aging-model ablation table: the
// escalation workload under the four system-server configurations.
func BenchmarkAblationAging(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunAgingAblations(1, benchGen)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatal("ablation rows missing")
		}
	}
}

// BenchmarkAblationRejuvenation regenerates the Section IV-E rejuvenation
// counterfactual.
func BenchmarkAblationRejuvenation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rs, err := experiments.RunRejuvenationStudy(1, benchGen)
		if err != nil {
			b.Fatal(err)
		}
		if rs.Sent == 0 {
			b.Fatal("nothing sent")
		}
	}
}

// BenchmarkAblationValidationEras regenerates the JJB-era historical
// comparison (legacy vs modern phone fleets).
func BenchmarkAblationValidationEras(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cmp, err := experiments.CompareValidationEras(experiments.Options{Seed: 1, Gen: benchGen})
		if err != nil {
			b.Fatal(err)
		}
		if cmp.Components == 0 {
			b.Fatal("empty comparison")
		}
	}
}

// BenchmarkNotificationFuzz measures the notification-action fuzzing
// extension (the Wear notification surface of Section II-B).
func BenchmarkNotificationFuzz(b *testing.B) {
	fleet := qgj.BuildWearFleet(1)
	dev := wearos.New(wearos.DefaultWatchConfig())
	if err := fleet.InstallInto(dev); err != nil {
		b.Fatal(err)
	}
	m := notify.NewManager(dev)
	if posted := notify.SeedFromFleet(m); posted == 0 {
		b.Fatal("no notifications seeded")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := notify.FuzzActions(m, notify.SemiValid, uint64(i+1), 1)
		if out.Fired == 0 {
			b.Fatal("nothing fired")
		}
	}
}
