package experiments

import (
	"testing"

	"repro/internal/core"
	"repro/internal/farm"
)

func TestLegacyPhoneStudyRuns(t *testing.T) {
	sr, err := RunLegacyPhoneStudy(farm.Config{
		Seed:     1,
		Aging:    true,
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
	cmp, err := CompareValidationEras(farm.Config{Seed: 1, Aging: true})
	if err != nil {
		t.Fatal(err)
	}
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
	rows, err := RunAgingAblations(1, core.GeneratorConfig{})
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

func TestPacingAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("pacing ablation skipped in -short mode")
	}
	// Reduced scale over the full fleet: pacing lets instability decay
	// between failures; removing it can only keep or increase reboots.
	paced, unpaced, err := PacingAblation(1, QuickGen(4))
	if err != nil {
		t.Fatal(err)
	}
	if unpaced < paced {
		t.Errorf("removing pacing reduced reboots: paced=%d unpaced=%d", paced, unpaced)
	}
}

func TestRejuvenationStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("rejuvenation study skipped in -short mode")
	}
	rs, err := RunRejuvenationStudy(1, core.GeneratorConfig{})
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
