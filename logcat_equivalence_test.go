// Equivalence gate for the zero-allocation logging work: the logcat text a
// campaign produces is part of the reproduction's observable output (the
// analyzer, the farm merge, and the report exports all read it), so the
// lazy-rendering hot path must emit byte-identical logs to the original
// eager fmt.Sprintf formatting. The golden file under testdata/ was
// generated from the eager implementation; regenerate with
//
//	QGJ_UPDATE_GOLDEN=1 go test -run TestLogcatDumpMatchesGolden .
//
// only when the *intended* log text changes (new log lines, new fields) —
// never to paper over a formatting regression.
package qgj_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	qgj "repro"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faultinject"
	"repro/internal/intent"
	"repro/internal/javalang"
	"repro/internal/logcat"
	"repro/internal/manifest"
	"repro/internal/triage"
	"repro/internal/wearos"
)

const goldenDumpPath = "testdata/golden_dump.txt"

// buildGoldenScenario drives a deterministic reduced campaign through every
// logging surface the optimization touches: the dispatch hot path (campaign
// A), the extras path (campaign D) and the eager fallback (an intent
// carrying categories, MIME type, and flags).
func buildGoldenScenario(t testing.TB) *wearos.OS {
	t.Helper()
	dev := wearos.New(wearos.DefaultWatchConfig())
	fleet := qgj.BuildWearFleet(1)
	if err := fleet.InstallInto(dev); err != nil {
		t.Fatal(err)
	}
	inj := &core.Injector{Dev: dev, Cfg: experiments.QuickGen(8)}
	inj.FuzzApp(core.CampaignA, fleet.Packages[0])
	inj.FuzzApp(core.CampaignD, fleet.Packages[0])

	// Eager-fallback dispatch: categories, MIME type, flags, and extras all
	// set, so the intent cannot take the structured fast path.
	full := &intent.Intent{
		Action:    "android.intent.action.VIEW",
		Component: fleet.Packages[0].Components[0].Name,
		Type:      "text/plain",
		Flags:     intent.FlagActivityNewTask,
		SenderUID: core.QGJUID,
	}
	full.AddCategory(intent.CategoryDefault)
	full.Data, _ = intent.ParseURI("https://foo.com/")
	full.PutExtra("k", intent.StringValue("v"))
	dev.StartActivity(full)
	return dev
}

// TestLogcatDumpMatchesGolden pins the full logcat text of the scenario,
// byte for byte, against the dump the eager formatting produced.
func TestLogcatDumpMatchesGolden(t *testing.T) {
	dev := buildGoldenScenario(t)
	got := dev.Logcat().Dump()

	if os.Getenv("QGJ_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(goldenDumpPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenDumpPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenDumpPath, len(got))
		return
	}

	wantBytes, err := os.ReadFile(goldenDumpPath)
	if err != nil {
		t.Fatalf("missing golden file (run with QGJ_UPDATE_GOLDEN=1 to create): %v", err)
	}
	want := string(wantBytes)
	if got == want {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(want, "\n")
	if len(gotLines) != len(wantLines) {
		t.Errorf("dump has %d lines, golden has %d", len(gotLines), len(wantLines))
	}
	n := len(gotLines)
	if len(wantLines) < n {
		n = len(wantLines)
	}
	shown := 0
	for i := 0; i < n && shown < 5; i++ {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d:\n got: %q\nwant: %q", i+1, gotLines[i], wantLines[i])
			shown++
		}
	}
	t.Fatal("logcat dump is not byte-identical to the eager-formatting golden")
}

// TestSnapshotFormatMatchesDump pins Snapshot()+Format() against Dump():
// the two read paths must render identical text for every retained entry.
func TestSnapshotFormatMatchesDump(t *testing.T) {
	dev := buildGoldenScenario(t)
	snap := dev.Logcat().Snapshot()
	var sb strings.Builder
	for _, e := range snap {
		sb.WriteString(e.Format())
		sb.WriteByte('\n')
	}
	if sb.String() != dev.Logcat().Dump() {
		t.Fatal("Snapshot()+Format() text differs from Dump()")
	}
}

// TestPooledGenerationClonesAreStable guards the intent pool's aliasing
// contract: a Clone taken inside the emit callback must stay byte-stable
// after the generator resets and reuses the pooled intent for the rest of
// the stream. Campaign D is the sharpest probe — its extras exercise the
// pooled Bundle storage that Reset recycles.
func TestPooledGenerationClonesAreStable(t *testing.T) {
	target := intent.ComponentName{Package: "com.x", Class: "com.x.ui.Main"}
	cfg := core.GeneratorConfig{Seed: 7, ActionStride: 4}
	for _, c := range core.AllCampaigns {
		var clones []*intent.Intent
		var atEmission []string
		c.Generate(target, cfg, core.QGJUID, func(in *intent.Intent) {
			clones = append(clones, in.Clone())
			atEmission = append(atEmission, in.String())
		})
		for i, cl := range clones {
			if got := cl.String(); got != atEmission[i] {
				t.Fatalf("campaign %s intent %d mutated after clone:\n at emission: %s\n       after: %s",
					c.Letter(), i, atEmission[i], got)
			}
		}
	}
}

// parsedDump returns the device's logcat dump parsed back line by line (the
// paper's pull-then-analyze path), stamped with the boot year the
// threadtime format omits.
func parsedDump(t *testing.T, dev *wearos.OS, year int) []logcat.Entry {
	t.Helper()
	var parsed []logcat.Entry
	for _, line := range strings.Split(strings.TrimSuffix(dev.Logcat().Dump(), "\n"), "\n") {
		e, ok := logcat.ParseLine(line, year)
		if !ok {
			t.Fatalf("dump line does not parse: %q", line)
		}
		parsed = append(parsed, e)
	}
	return parsed
}

// reportDigest renders everything an analysis report holds, components in
// name order.
func reportDigest(r *analysis.Report) string {
	var b strings.Builder
	for _, cn := range r.ComponentNames() {
		fmt.Fprintf(&b, "%+v\n", *r.Components[cn])
	}
	for _, at := range r.RebootTimes {
		fmt.Fprintf(&b, "reboot %s\n", at.Format(time.RFC3339Nano))
	}
	fmt.Fprintf(&b, "deaths=%q crash=%d anr=%d sec=%d entries=%d\n",
		r.CoreServiceDeaths, r.CrashEvents, r.ANREvents, r.SecurityEvents, r.Entries)
	return b.String()
}

// triageDigest renders the identity of every record a triage collector
// reassembles from entries, one per line.
func triageDigest(entries []logcat.Entry) []string {
	c := triage.NewCollector()
	c.ConsumeAll(entries)
	var out []string
	for _, rec := range c.Crashes() {
		out = append(out, fmt.Sprintf("%016x %s %q %q %q %q %q",
			rec.Hash(), rec.Kind, rec.Process, rec.Component, rec.Fault, rec.Classes, rec.Frames))
	}
	return out
}

// checkLiveMatchesDump asserts both logcat consumers — classification and
// crash triage — conclude the same from the live entries as from the dump
// text parsed back, and returns the live results.
func checkLiveMatchesDump(t *testing.T, dev *wearos.OS) (*analysis.Report, []string) {
	t.Helper()
	snap := dev.Logcat().Snapshot()
	parsed := parsedDump(t, dev, snap[0].Time().Year())
	live, fromDump := analysis.AnalyzeEntries(snap), analysis.AnalyzeEntries(parsed)
	if got, want := reportDigest(fromDump), reportDigest(live); got != want {
		t.Fatalf("analysis of the parsed dump diverges:\n dump:\n%s\n live:\n%s", got, want)
	}
	liveRecs, dumpRecs := triageDigest(snap), triageDigest(parsed)
	if got, want := strings.Join(dumpRecs, "\n"), strings.Join(liveRecs, "\n"); got != want {
		t.Fatalf("triage of the parsed dump diverges:\n dump:\n%s\n live:\n%s", got, want)
	}
	return live, liveRecs
}

// TestAnalysisMatchesParsedDump pins the classification and triage
// equivalence on the golden scenario: the streaming collectors fed live
// entries must agree with collectors fed the dump text parsed back line by
// line.
func TestAnalysisMatchesParsedDump(t *testing.T) {
	live, _ := checkLiveMatchesDump(t, buildGoldenScenario(t))
	if live.Entries == 0 || len(live.Components) == 0 {
		t.Fatalf("golden scenario classified nothing: %+v", live)
	}
}

// buildEscalationScenario drives the log kinds the golden scenario lacks:
// one campaign-F fault window graded by its VERDICT line, ANRs with a thrown
// trace from a sensor client until the watchdog SIGABRTs sensorservice and
// the device reboots, and an ambient-bound crash streak that ends in the
// system_server SIGSEGV reboot.
func buildEscalationScenario(t testing.TB) *wearos.OS {
	t.Helper()
	dev := wearos.New(wearos.DefaultWatchConfig())
	const app = "com.escalate.wear"
	name := func(cls string) intent.ComponentName {
		return intent.ComponentName{Package: app, Class: app + "." + cls}
	}
	plain, sensor, ambient := name("Plain"), name("SensorFace"), name("AmbientFace")
	pkg := &manifest.Package{Name: app, Category: manifest.NotHealthFitness, Origin: manifest.ThirdParty}
	for _, cn := range []intent.ComponentName{plain, sensor, ambient} {
		pkg.Components = append(pkg.Components, &manifest.Component{Name: cn, Type: manifest.Activity, Exported: true})
	}
	if err := dev.InstallPackage(pkg); err != nil {
		t.Fatal(err)
	}
	dev.RegisterHandler(sensor, func(*intent.Intent) wearos.Outcome {
		return wearos.Outcome{BusyFor: 8 * time.Second, Thrown: javalang.New(javalang.ClassDeadObject, "sensor listener gone").
			WithStack(javalang.Frame{Class: app + ".SensorFace", Method: "onSensorChanged", File: "SensorFace.java", Line: 88})}
	}, wearos.ComponentTraits{UsesSensorManager: true})
	dev.RegisterHandler(ambient, func(*intent.Intent) wearos.Outcome {
		root := javalang.New(javalang.ClassNullPointer, "ambient callback").
			WithStack(javalang.Frame{Class: app + ".AmbientFace", Method: "onEnterAmbient", File: "AmbientFace.java", Line: 12})
		return wearos.Outcome{Thrown: javalang.New(javalang.ClassRuntime, "Unable to start activity").WithCause(root)}
	}, wearos.ComponentTraits{AmbientBound: true})

	send := func(cn intent.ComponentName, n int) {
		for i := 0; i < n; i++ {
			dev.StartActivity(&intent.Intent{Action: "android.intent.action.MAIN", Component: cn, SenderUID: core.QGJUID})
			dev.Clock().Advance(time.Second)
		}
	}
	fault := faultinject.NewEngine(dev, &faultinject.Plan{Windows: []faultinject.Window{
		{Kind: faultinject.BinderDead, Start: 2, End: 4, Recover: true},
	}}, app)
	send(plain, 6)
	fault.Finish()
	send(sensor, 3)
	send(ambient, 4)
	return dev
}

// TestEscalationScenarioMatchesParsedDump extends the live-versus-dump
// equivalence to ANRs, ANR traces, native signals, watchdog and
// AmbientService anchors, reboots and fault verdicts.
func TestEscalationScenarioMatchesParsedDump(t *testing.T) {
	dev := buildEscalationScenario(t)
	kinds := make(map[logcat.EventKind]int)
	var dec logcat.Decoder
	for _, e := range dev.Logcat().Snapshot() {
		kinds[dec.Decode(&e).Kind]++
	}
	for _, k := range []logcat.EventKind{logcat.EventANR, logcat.EventFatal, logcat.EventSignal,
		logcat.EventWatchdog, logcat.EventAmbient, logcat.EventReboot, logcat.EventVerdict} {
		if kinds[k] == 0 {
			t.Errorf("scenario logs no event of kind %d", k)
		}
	}
	live, recs := checkLiveMatchesDump(t, dev)
	if live.CrashEvents != 4 || live.ANREvents != 3 || len(live.RebootTimes) != 2 ||
		len(live.CoreServiceDeaths) != 2 || len(recs) != 8 {
		t.Fatalf("scenario shape changed: %d crashes, %d ANRs, %d reboots, %d core-service deaths, %d triage records",
			live.CrashEvents, live.ANREvents, len(live.RebootTimes), len(live.CoreServiceDeaths), len(recs))
	}
	for _, cr := range live.Components {
		if cr.Manifestation() == analysis.ManifestReboot {
			return
		}
	}
	t.Fatal("no component was blamed for a reboot")
}

// TestLauncherDispatchLineMatchesEager pins the dispatch line of am's
// MAIN/LAUNCHER launch, which is stored as a lazy payload, against the
// eager text the device logged for it before: with and without data (an
// opaque datum is split between payload and message) and extras. Two
// categories still take the eager path with the same text.
func TestLauncherDispatchLineMatchesEager(t *testing.T) {
	dev := wearos.New(wearos.DefaultWatchConfig())
	fleet := qgj.BuildWearFleet(1)
	if err := fleet.InstallInto(dev); err != nil {
		t.Fatal(err)
	}
	comp := fleet.Packages[0].Components[0].Name
	launch := func(action, data string, extras bool, cats ...string) *intent.Intent {
		in := &intent.Intent{Action: action, Component: comp, SenderUID: core.QGJUID}
		for _, c := range cats {
			in.AddCategory(c)
		}
		if data != "" {
			var ok bool
			if in.Data, ok = intent.ParseURI(data); !ok {
				t.Fatalf("unparsable URI %q", data)
			}
		}
		if extras {
			in.PutExtra("k", intent.StringValue("v"))
		}
		return in
	}
	const main = "android.intent.action.MAIN"
	cases := []struct {
		name string
		in   *intent.Intent
		lazy bool
	}{
		{"launcher", launch(main, "", false, intent.CategoryLauncher), true},
		{"launcher-no-action", launch("", "", false, intent.CategoryLauncher), true},
		{"launcher-data", launch(main, "https://foo.com/a?b=1&c=2", false, intent.CategoryLauncher), true},
		{"launcher-opaque-data", launch(main, "tel:5550100", true, intent.CategoryLauncher), true},
		{"launcher-extras", launch("", "geo:1,2", true, intent.CategoryLauncher), true},
		{"two-categories", launch(main, "tel:123", false, intent.CategoryLauncher, intent.CategoryDefault), false},
		{"other-category", launch(main, "", false, intent.CategoryDefault), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := dev.Logcat().Len()
			dev.StartActivity(tc.in)
			want := fmt.Sprintf("START u0 %s from uid %d", tc.in.String(), tc.in.SenderUID)
			entries := dev.Logcat().Snapshot()
			for i := len(entries) - (dev.Logcat().Len() - before); i < len(entries); i++ {
				e := &entries[i]
				if !strings.HasPrefix(e.Msg(), "START u0 ") {
					continue
				}
				if e.Msg() != want {
					t.Fatalf("dispatch line\n got: %q\nwant: %q", e.Msg(), want)
				}
				if lazy := e.Payload.Op == logcat.MsgDispatch; lazy != tc.lazy {
					t.Fatalf("dispatch stored lazily = %v, want %v", lazy, tc.lazy)
				}
				return
			}
			t.Fatal("no dispatch line logged")
		})
	}
}
