package experiments

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/farm"
	"repro/internal/javalang"
	"repro/internal/manifest"
	"repro/internal/uifuzz"
	"repro/internal/wearos"
)

// fullWear runs the complete wear study once per test binary (it takes a
// few seconds) and shares the result.
var fullWearResult *farm.Result

func fullWear(t *testing.T) *farm.Result {
	t.Helper()
	if testing.Short() {
		t.Skip("full-scale wear study skipped in -short mode")
	}
	if fullWearResult == nil {
		sr, err := RunWearStudy(farm.Config{Seed: 1, Aging: farm.PaperAging()})
		if err != nil {
			t.Fatal(err)
		}
		fullWearResult = sr
	}
	return fullWearResult
}

var fullPhoneResult *farm.Result

func fullPhone(t *testing.T) *farm.Result {
	t.Helper()
	if testing.Short() {
		t.Skip("full-scale phone study skipped in -short mode")
	}
	if fullPhoneResult == nil {
		sr, err := RunPhoneStudy(farm.Config{Seed: 1, Aging: farm.PaperAging()})
		if err != nil {
			t.Fatal(err)
		}
		fullPhoneResult = sr
	}
	return fullPhoneResult
}

func TestQuickStudySubsetRuns(t *testing.T) {
	sr, err := RunWearStudy(farm.Config{
		Seed:     2,
		Aging:    farm.PaperAging(),
		Gen:      QuickGen(8),
		Packages: []string{"com.google.android.apps.fitness", "com.strava.wear"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Campaigns) != 4 {
		t.Fatalf("campaigns = %d", len(sr.Campaigns))
	}
	if sr.Sent == 0 {
		t.Fatal("nothing sent")
	}
	// Only the two requested packages appear in reports.
	for cn := range sr.Combined.Components {
		if cn.Package != "com.google.android.apps.fitness" && cn.Package != "com.strava.wear" {
			t.Fatalf("unexpected package fuzzed: %s", cn.Package)
		}
	}
}

func TestTableIVolumesMatchPaper(t *testing.T) {
	// Table I: A ≈ 1M, B ≈ 100K, C ≈ 300K, D ≈ 250K over 912 components.
	rows := TableI(core.GeneratorConfig{}, 912)
	want := map[core.Campaign]int{
		core.CampaignA: 1_000_000,
		core.CampaignB: 100_000,
		core.CampaignC: 300_000,
		core.CampaignD: 250_000,
	}
	for _, r := range rows {
		w := want[r.Campaign]
		lo, hi := int(float64(w)*0.7), int(float64(w)*1.4)
		if r.ProjectedTotal < lo || r.ProjectedTotal > hi {
			t.Errorf("campaign %s projected %d, paper ~%d", r.Campaign.Letter(), r.ProjectedTotal, w)
		}
	}
}

func TestTableIIMatchesPaperExactly(t *testing.T) {
	sr, err := RunWearStudy(farm.Config{Seed: 1, Gen: QuickGen(30), Packages: []string{"com.strava.wear"}, Aging: farm.PaperAging()})
	if err != nil {
		t.Fatal(err)
	}
	rows := TableII(sr.Fleet)
	want := []TableIIRow{
		{manifest.HealthFitness, manifest.BuiltIn, 2, 81, 34},
		{manifest.HealthFitness, manifest.ThirdParty, 11, 80, 59},
		{manifest.NotHealthFitness, manifest.BuiltIn, 9, 168, 188},
		{manifest.NotHealthFitness, manifest.ThirdParty, 24, 185, 117},
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, w := range want {
		if rows[i] != w {
			t.Errorf("row %d = %+v, want %+v", i, rows[i], w)
		}
	}
}

// --- Full-scale reproduction bands -----------------------------------------

func TestFullWearVolumeNearPaper(t *testing.T) {
	sr := fullWear(t)
	// "over a million and half intents were sent to over 900 components".
	if sr.Sent < 1_400_000 || sr.Sent > 2_100_000 {
		t.Fatalf("total intents = %d, want ~1.5M+", sr.Sent)
	}
	if comps := len(sr.Combined.Components); comps < 900 {
		t.Fatalf("components touched = %d, want >900", comps)
	}
}

func TestFullWearRebootsMatchPaper(t *testing.T) {
	sr := fullWear(t)
	// "During the fuzzing campaigns, the system restarted twice."
	if got := sr.Reboots(); got != 2 {
		t.Fatalf("reboots = %d, paper reports 2", got)
	}
	// Fig. 3a: reboot affects 4 of the components.
	rc := RebootComponents(sr)
	if len(rc) < 3 || len(rc) > 5 {
		t.Fatalf("reboot components = %d (%v), paper reports 4", len(rc), rc)
	}
	// One reboot is the SensorManager health app (campaign A), the other a
	// built-in app (campaign D) — Table III's reboot cells.
	rows := TableIII(sr)
	if rows[0].Health.Reboot == 0 {
		t.Error("campaign A health reboot cell is zero; paper reports 8%")
	}
	if rows[3].NotHealth.Reboot == 0 {
		t.Error("campaign D not-health reboot cell is zero; paper reports 3%")
	}
	// The escalation chains must be visible in the logs.
	sawAbort, sawSegv := false, false
	for _, c := range sr.Campaigns {
		for _, d := range c.Report.CoreServiceDeaths {
			switch d {
			case "sensorservice " + javalang.SIGABRT:
				sawAbort = true
			case "system_server " + javalang.SIGSEGV:
				sawSegv = true
			}
		}
	}
	if !sawAbort || !sawSegv {
		t.Fatalf("escalation chains missing: SIGABRT=%v SIGSEGV=%v", sawAbort, sawSegv)
	}
}

func TestFullWearFig3aShape(t *testing.T) {
	sr := fullWear(t)
	mc := Fig3a(sr)
	total := 0
	for _, n := range mc {
		total += n
	}
	noEffect := float64(mc[analysis.ManifestNoEffect]) / float64(total)
	// "almost 90% of the components are not affected at all".
	if noEffect < 0.85 || noEffect > 0.96 {
		t.Errorf("no-effect share = %.3f, paper ~0.90", noEffect)
	}
	// "crash ... is more than 8X the next error class, unresponsive".
	if mc[analysis.ManifestCrash] < 8*mc[analysis.ManifestUnresponsive] {
		t.Errorf("crash %d not >8x unresponsive %d",
			mc[analysis.ManifestCrash], mc[analysis.ManifestUnresponsive])
	}
	if mc[analysis.ManifestUnresponsive] == 0 {
		t.Error("no unresponsive components at all")
	}
}

func TestFullWearSecurityShare(t *testing.T) {
	sr := fullWear(t)
	// SecurityException represents 81.3% of all exceptions.
	share := sr.Combined.SecurityShare()
	if share < 0.75 || share > 0.88 {
		t.Fatalf("security share = %.3f, paper 0.813", share)
	}
}

func TestFullWearFig2Ordering(t *testing.T) {
	sr := fullWear(t)
	dist := sr.Combined.UncaughtClassDistribution(false)
	if len(dist) < 5 {
		t.Fatalf("too few exception classes: %v", dist)
	}
	// "After SecurityException, the second largest share belongs to
	// IllegalArgumentException."
	if dist[0].Class != javalang.ClassIllegalArgument {
		t.Errorf("largest non-security class = %s, paper says IllegalArgumentException", dist[0].Class)
	}
	// Both IllegalState and NullPointer must rank highly on wear.
	top4 := map[javalang.Class]bool{}
	for _, cc := range dist[:4] {
		top4[cc.Class] = true
	}
	if !top4[javalang.ClassNullPointer] || !top4[javalang.ClassIllegalState] {
		t.Errorf("top-4 classes = %v, want NPE and ISE present", dist[:4])
	}
}

func TestFullWearFig3bCrashBlame(t *testing.T) {
	sr := fullWear(t)
	blame := Fig3b(sr)
	crash := blame[analysis.ManifestCrash]
	if len(crash) == 0 {
		t.Fatal("no crash blame distribution")
	}
	shares := map[javalang.Class]float64{}
	for _, b := range crash {
		shares[b.Class] = b.Share
	}
	// NPE still dominates crashes but at a reduced share (paper: less than
	// the 46% of prior studies, with IAE/ISE increased).
	if shares[javalang.ClassNullPointer] < 0.15 || shares[javalang.ClassNullPointer] > 0.46 {
		t.Errorf("NPE crash share = %.3f, want dominant but <0.46", shares[javalang.ClassNullPointer])
	}
	if shares[javalang.ClassIllegalArgument] < 0.10 {
		t.Errorf("IAE crash share = %.3f, want elevated", shares[javalang.ClassIllegalArgument])
	}
	if shares[javalang.ClassIllegalState] < 0.10 {
		t.Errorf("ISE crash share = %.3f, want elevated", shares[javalang.ClassIllegalState])
	}
	// The ArithmeticException scenario (GridViewPager divide-by-zero) must
	// be visible among crash causes.
	found := false
	for _, b := range crash {
		if b.Class == javalang.ClassArithmetic {
			found = true
		}
	}
	if !found {
		t.Error("ArithmeticException missing from crash blame (GridViewPager scenario)")
	}
	// Unresponsive column: IllegalStateException dominates, DeadObject
	// present (Section IV-A).
	unresp := blame[analysis.ManifestUnresponsive]
	if len(unresp) == 0 {
		t.Fatal("no unresponsive blame distribution")
	}
	if unresp[0].Class != javalang.ClassIllegalState {
		t.Errorf("unresponsive dominated by %s, paper says IllegalStateException", unresp[0].Class)
	}
	sawDead := false
	for _, b := range unresp {
		if b.Class == javalang.ClassDeadObject {
			sawDead = true
		}
	}
	if !sawDead {
		t.Error("DeadObjectException missing from unresponsive blame")
	}
}

func TestFullWearFig4Rates(t *testing.T) {
	sr := fullWear(t)
	f4 := Fig4(sr)
	bi := f4.CrashAppRate[manifest.BuiltIn]
	tp := f4.CrashAppRate[manifest.ThirdParty]
	// Paper: built-in 64%, third-party 46%.
	if bi < 0.5 || bi > 0.78 {
		t.Errorf("built-in crash app rate = %.2f, paper 0.64", bi)
	}
	if tp < 0.33 || tp > 0.58 {
		t.Errorf("third-party crash app rate = %.2f, paper 0.46", tp)
	}
	if bi <= tp {
		t.Errorf("built-in (%.2f) must crash at a higher rate than third-party (%.2f)", bi, tp)
	}
}

func TestFullWearTableIIIShape(t *testing.T) {
	sr := fullWear(t)
	rows := TableIII(sr)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// "Both categories have no effect due to the injection at roughly
		// the same rate, 69.2% for health apps versus 74.5% for others."
		if r.Health.NoEffect < 0.45 || r.Health.NoEffect > 0.90 {
			t.Errorf("campaign %s health no-effect = %.2f", r.Campaign.Letter(), r.Health.NoEffect)
		}
		if r.NotHealth.NoEffect < 0.55 || r.NotHealth.NoEffect > 0.90 {
			t.Errorf("campaign %s not-health no-effect = %.2f", r.Campaign.Letter(), r.NotHealth.NoEffect)
		}
		// Crash is the dominant error manifestation in every campaign/category.
		if r.Health.Crash < r.Health.Hang || r.NotHealth.Crash < r.NotHealth.Hang {
			t.Errorf("campaign %s: hang exceeds crash", r.Campaign.Letter())
		}
	}
	// No clear robustness difference between health and other apps: average
	// no-effect rates within 15 points.
	var h, nh float64
	for _, r := range rows {
		h += r.Health.NoEffect
		nh += r.NotHealth.NoEffect
	}
	h, nh = h/4, nh/4
	if diff := h - nh; diff > 0.15 || diff < -0.15 {
		t.Errorf("health vs not-health no-effect gap = %.2f, paper finds no significant difference", diff)
	}
}

func TestFullPhoneTableIV(t *testing.T) {
	sr := fullPhone(t)
	rows, others, total := TableIV(sr)
	// Paper: 175 crashes.
	if total < 120 || total > 240 {
		t.Fatalf("phone crashes = %d, paper 175", total)
	}
	shares := map[javalang.Class]float64{}
	for _, r := range rows {
		shares[r.Class] = r.Share
	}
	// NPE first (30.9%), ClassNotFound second (26.3%) — the phone-specific
	// signature the paper contrasts with wear.
	if shares[javalang.ClassNullPointer] < 0.22 || shares[javalang.ClassNullPointer] > 0.45 {
		t.Errorf("phone NPE share = %.3f, paper 0.309", shares[javalang.ClassNullPointer])
	}
	if shares[javalang.ClassClassNotFound] < 0.18 || shares[javalang.ClassClassNotFound] > 0.36 {
		t.Errorf("phone CNFE share = %.3f, paper 0.263", shares[javalang.ClassClassNotFound])
	}
	if shares[javalang.ClassIllegalArgument] < 0.10 || shares[javalang.ClassIllegalArgument] > 0.28 {
		t.Errorf("phone IAE share = %.3f, paper 0.177", shares[javalang.ClassIllegalArgument])
	}
	if shares[javalang.ClassNullPointer] <= shares[javalang.ClassClassNotFound] {
		t.Error("NPE must outrank CNFE on the phone")
	}
	// The phone sees far more ClassNotFound than the wearable.
	wear := fullWear(t)
	wearDist := wear.Combined.UncaughtClassDistribution(false)
	var wearCNFE, wearTotal int
	for _, cc := range wearDist {
		wearTotal += cc.Count
		if cc.Class == javalang.ClassClassNotFound {
			wearCNFE = cc.Count
		}
	}
	wearShare := float64(wearCNFE) / float64(wearTotal)
	if wearShare >= shares[javalang.ClassClassNotFound] {
		t.Errorf("CNFE: wear share %.3f >= phone share %.3f; paper says phone-dominant",
			wearShare, shares[javalang.ClassClassNotFound])
	}
	// The phone study observed no reboots.
	if sr.Reboots() != 0 {
		t.Errorf("phone rebooted %d times", sr.Reboots())
	}
	_ = others
}

func TestFullUIStudyTableV(t *testing.T) {
	if testing.Short() {
		t.Skip("full UI study skipped in -short mode")
	}
	res, err := RunUIStudy(UIOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rows := TableV(res)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	sv, rd := rows[0], rows[1]
	if sv.InjectedEvents != 41405 || rd.InjectedEvents != 41405 {
		t.Fatalf("injected = %d / %d, paper 41405 each", sv.InjectedEvents, rd.InjectedEvents)
	}
	// Semi-valid: 1496 (3.6%) exceptions, 22 (0.05%) crashes.
	if sv.ExceptionRate < 0.025 || sv.ExceptionRate > 0.05 {
		t.Errorf("semi-valid exception rate = %.4f, paper 0.036", sv.ExceptionRate)
	}
	if sv.Crashes < 10 || sv.Crashes > 40 {
		t.Errorf("semi-valid crashes = %d, paper 22", sv.Crashes)
	}
	// Random: 615 (1.5%) exceptions, 0 crashes.
	if rd.ExceptionRate < 0.008 || rd.ExceptionRate > 0.025 {
		t.Errorf("random exception rate = %.4f, paper 0.015", rd.ExceptionRate)
	}
	if rd.Crashes != 0 {
		t.Errorf("random crashes = %d, paper 0", rd.Crashes)
	}
	// No system crashes during UI injections.
	if res.SemiValid.SystemCrashes != 0 || res.Random.SystemCrashes != 0 {
		t.Error("UI fuzzing crashed the system; paper observed none")
	}
	// Seed 1 exactly, as EXPERIMENTS.md reports it.
	pinTableV(t, rows, [2][4]int{{41405, 1574, 24, 0}, {41405, 644, 0, 0}})
}

// TestUIStudyPinned runs the UI study at a small scale, so -short covers
// it too, and pins seed 1's Table V.
func TestUIStudyPinned(t *testing.T) {
	res, err := RunUIStudy(UIOptions{Seed: 1, Events: 2000})
	if err != nil {
		t.Fatal(err)
	}
	pinTableV(t, TableV(res), [2][4]int{{2000, 83, 3, 0}, {2000, 27, 0, 0}})
}

// TestUIStudyModesMatchFreshBoot: RunUIStudy boots the emulator once,
// runs the second mode on a clone of that boot, runs both modes at the
// same time, and gives each device a one-chunk logcat ring; each mode's
// outcome, report included, must equal a run on its own freshly booted
// emulator with the default ring, so neither the concurrency nor the ring's
// capacity reaches Table V or the Report.
func TestUIStudyModesMatchFreshBoot(t *testing.T) {
	const events = 3000
	res, err := RunUIStudy(UIOptions{Seed: 1, Events: events})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []struct {
		mode uifuzz.Mode
		got  uifuzz.Outcome
	}{{uifuzz.SemiValid, res.SemiValid}, {uifuzz.Random, res.Random}} {
		dev := wearos.New(wearos.DefaultEmulatorConfig())
		if err := apps.BuildEmulatorFleet(1).InstallInto(dev); err != nil {
			t.Fatal(err)
		}
		want := uifuzz.New(dev).Run(m.mode, uifuzz.Config{Seed: 1, Events: events})
		if !reflect.DeepEqual(m.got, want) {
			t.Errorf("%s: outcome of the concurrent tail-ring run differs from a fresh boot:\n got %+v\nwant %+v",
				m.mode, m.got, want)
		}
	}
}

// pinTableV checks the semi-valid and random rows' injected events,
// exceptions, crashes and system crashes.
func pinTableV(t *testing.T, rows []TableVRow, want [2][4]int) {
	t.Helper()
	for i, r := range rows {
		if got := [4]int{r.InjectedEvents, r.Exceptions, r.Crashes, r.SystemCrashes}; got != want[i] {
			t.Errorf("%s: injected/exceptions/crashes/system = %v, want %v", r.Experiment, got, want[i])
		}
	}
}

func TestStudyDeterminism(t *testing.T) {
	opts := farm.Config{Seed: 9, Gen: QuickGen(10), Packages: []string{"com.whatsapp.wear"}, Aging: farm.PaperAging()}
	a, err := RunWearStudy(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunWearStudy(opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Sent != b.Sent {
		t.Fatalf("sent differs: %d vs %d", a.Sent, b.Sent)
	}
	am, bm := a.Combined.ManifestationCounts(), b.Combined.ManifestationCounts()
	for _, m := range analysis.AllManifestations {
		if am[m] != bm[m] {
			t.Fatalf("manifestation %v differs: %d vs %d", m, am[m], bm[m])
		}
	}
}

// TestUnknownPackageRejected: a typo'd package must fail the study, not
// fuzz nothing and report four empty campaigns.
func TestUnknownPackageRejected(t *testing.T) {
	for _, cfg := range []farm.Config{{Aging: farm.PaperAging()}, {Sharding: core.Sharding{Workers: 2}}} {
		cfg.Seed, cfg.Gen, cfg.Packages = 1, QuickGen(30), []string{"com.strava.wearr"}
		_, err := RunWearStudy(cfg)
		if err == nil || !strings.Contains(err.Error(), `"com.strava.wearr"`) {
			t.Fatalf("aging=%v: err = %v, want the unknown package named", cfg.Aging != nil, err)
		}
	}
}

// TestAgingStudyRefusesFaultCampaign: the aging design has no fresh device
// per unit for campaign F's fault engine; it must refuse F rather than send
// F's traffic with no faults.
func TestAgingStudyRefusesFaultCampaign(t *testing.T) {
	_, err := RunWearStudy(farm.Config{Seed: 1, Gen: QuickGen(30), Packages: []string{"com.strava.wear"},
		Campaigns: []core.Campaign{core.CampaignF}, Aging: farm.PaperAging()})
	if err == nil || !strings.Contains(err.Error(), "campaign F") {
		t.Fatalf("err = %v, want the aging study to refuse campaign F", err)
	}
}
