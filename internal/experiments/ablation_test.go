package experiments

import (
	"io"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/farm"
	"repro/internal/intent"
	"repro/internal/manifest"
	"repro/internal/wearos"
)

func TestLegacyPhoneStudyRuns(t *testing.T) {
	sr, err := RunLegacyPhoneStudy(farm.Config{
		Seed:     1,
		Aging:    farm.PaperAging(),
		Gen:      QuickGen(6),
		Packages: []string{"com.android.chrome", "com.android.settings", "com.android.phone"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sr.Sent == 0 {
		t.Fatal("legacy study sent nothing")
	}
	if sr.Fleet.Kind.String() != "legacy-phone" {
		t.Fatalf("fleet kind = %s", sr.Fleet.Kind)
	}
}

func TestValidationErasFullScale(t *testing.T) {
	// The paper's historical claim: "input validation on Android has
	// improved over the years, and fewer uncaught NullPointerException are
	// raised in Android 7.1.1 compared to results from Maji et al."
	if testing.Short() {
		t.Skip("full-scale era comparison skipped in -short mode")
	}
	cfg := farm.Config{Seed: 1, Aging: farm.PaperAging()}
	legacy, err := RunLegacyPhoneStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	modern, err := RunPhoneStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cmp := CompareValidationEras(legacy, modern)
	// Legacy NPE share near the 46% of the 2012 study; modern near 31%.
	if cmp.LegacyNPEShare < 0.38 || cmp.LegacyNPEShare > 0.56 {
		t.Errorf("legacy NPE share = %.3f, JJB-era baseline ~0.46", cmp.LegacyNPEShare)
	}
	if cmp.ModernNPEShare < 0.22 || cmp.ModernNPEShare > 0.45 {
		t.Errorf("modern NPE share = %.3f, paper 0.309", cmp.ModernNPEShare)
	}
	if cmp.ModernNPEShare >= cmp.LegacyNPEShare {
		t.Errorf("NPE share did not decline: legacy %.3f -> modern %.3f",
			cmp.LegacyNPEShare, cmp.ModernNPEShare)
	}
	// Overall crash incidence also declines era over era.
	if cmp.ModernCrashComp >= cmp.LegacyCrashComp {
		t.Errorf("crash incidence did not decline: legacy %d -> modern %d components",
			cmp.LegacyCrashComp, cmp.ModernCrashComp)
	}
}

func TestAgingAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("aging ablations skipped in -short mode")
	}
	// Full-scale generation against just the three target apps.
	rows, err := RunAgingAblations(farm.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AgingAblation{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	// The default configuration reproduces the paper's two reboots even
	// though the ordinary crashy app crash-loops thousands of times.
	if got := byName["default"].Reboots; got != 2 {
		t.Errorf("default config reboots = %d, want 2", got)
	}
	// Without crash-loop throttling, reboots become epidemic — the design
	// choice is load-bearing.
	if got := byName["no-crash-throttle"].Reboots; got <= 2 {
		t.Errorf("no-crash-throttle reboots = %d, want epidemic (>2)", got)
	}
	// Without decay, accumulated background noise eventually reboots too.
	if got := byName["no-decay"].Reboots; got < 2 {
		t.Errorf("no-decay reboots = %d, want >= 2", got)
	}
	// With weak core-service weight the escalation chains cannot trip the
	// threshold on their own.
	if got := byName["fragile-core"].Reboots; got != 0 {
		t.Errorf("fragile-core reboots = %d, want 0", got)
	}
}

// TestPacingAblation measures the effect of QGJ's empirically chosen delays
// (100 ms between intents, 250 ms per 100): with pacing, instability decays
// between failures; without it, unrelated failures pile into the same aging
// window. Reduced scale over the full fleet: removing pacing can only keep
// or increase reboots.
func TestPacingAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("pacing ablation skipped in -short mode")
	}
	const seed = 1
	gen := QuickGen(4)
	res, err := RunWearStudy(farm.Config{Seed: seed, Gen: gen, Aging: farm.PaperAging()})
	if err != nil {
		t.Fatal(err)
	}
	paced := res.Device.BootCount() - 1

	// Same intent stream, but no inter-intent delays: deliver back-to-back
	// so instability never decays between failures.
	dev := wearos.New(wearos.DefaultWatchConfig())
	if err := apps.BuildWearFleet(seed).InstallInto(dev); err != nil {
		t.Fatal(err)
	}
	gen.Seed = seed
	for _, c := range core.AllCampaigns {
		for _, pkg := range dev.Registry().Packages() {
			for _, comp := range pkg.Components {
				kind := comp.Type
				c.Generate(comp.Name, gen, core.QGJUID, func(in *intent.Intent) {
					if kind == manifest.Service {
						dev.StartService(in)
					} else {
						dev.StartActivity(in)
					}
				})
			}
		}
	}
	if unpaced := dev.BootCount() - 1; unpaced < paced {
		t.Errorf("removing pacing reduced reboots: paced=%d unpaced=%d", paced, unpaced)
	}
}

func TestRejuvenationStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("rejuvenation study skipped in -short mode")
	}
	rs, err := RunRejuvenationStudy(farm.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The baseline reproduces both paper reboots; rejuvenation defuses
	// both escalation chains.
	if rs.BaselineReboots != 2 {
		t.Errorf("baseline reboots = %d, want 2", rs.BaselineReboots)
	}
	if rs.RejuvenatedReboots != 0 {
		t.Errorf("rejuvenated reboots = %d, want 0", rs.RejuvenatedReboots)
	}
	if rs.Rejuvenations == 0 {
		t.Error("no rejuvenations performed")
	}
}

// TestExtensionStudiesQuickPinned pins the aging ablations and the
// rejuvenation counterfactual at seed 1, QuickGen(2), to the values the
// hand-driven device loops they replaced produced, and checks that the
// studies, whose devices now always carry the farm's collectors, print no
// logcat ring-full warning.
func TestExtensionStudiesQuickPinned(t *testing.T) {
	cfg := farm.Config{Seed: 1, Gen: QuickGen(2)}
	var (
		rows     []AgingAblation
		rs       RejuvenationStudy
		abErr    error
		rejuvErr error
	)
	stderr := captureStderr(t, func() {
		rows, abErr = RunAgingAblations(cfg)
		rs, rejuvErr = RunRejuvenationStudy(cfg)
	})
	if abErr != nil || rejuvErr != nil {
		t.Fatalf("ablations: %v, rejuvenation: %v", abErr, rejuvErr)
	}
	want := []AgingAblation{
		{Name: "default", Reboots: 1, Sent: 88440},
		{Name: "no-crash-throttle", Reboots: 1, Sent: 88440},
		{Name: "no-decay", Reboots: 1, Sent: 88440},
		{Name: "fragile-core", Reboots: 0, Sent: 88440},
	}
	if !slices.Equal(rows, want) {
		t.Errorf("ablations = %+v, want %+v", rows, want)
	}
	if want := (RejuvenationStudy{BaselineReboots: 1, RejuvenatedReboots: 0, Rejuvenations: 1, Sent: 37648}); rs != want {
		t.Errorf("rejuvenation = %+v, want %+v", rs, want)
	}
	if strings.Contains(stderr, "logcat ring full") {
		t.Errorf("extension studies warned of a full logcat ring:\n%s", stderr)
	}
}

// captureStderr runs fn with os.Stderr redirected to a pipe and returns
// what fn wrote there.
func captureStderr(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stderr
	os.Stderr = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	defer func() { os.Stderr = saved }()
	fn()
	w.Close()
	return <-out
}
