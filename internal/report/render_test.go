package report

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/farm"
	"repro/internal/javalang"
	"repro/internal/manifest"
)

func quickStudy(t *testing.T) *farm.Result {
	t.Helper()
	sr, err := experiments.RunWearStudy(farm.Config{
		Seed:  1,
		Gen:   experiments.QuickGen(6),
		Aging: farm.PaperAging(),
		Packages: []string{
			"com.google.android.apps.fitness",
			"com.whatsapp.wear",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sr
}

func TestTableIRendering(t *testing.T) {
	out := TableI(experiments.TableI(core.GeneratorConfig{}, 912))
	for _, want := range []string{
		"TABLE I", "A: Semi-valid Action and Data", "B: Blank Action or Data",
		"C: Random Action or Data", "D: Random Extras", "|Action| x |TypeOf(Data)|",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q:\n%s", want, out)
		}
	}
}

func TestTableIIRendering(t *testing.T) {
	sr := quickStudy(t)
	out := TableII(experiments.TableII(sr.Fleet))
	for _, want := range []string{"Health/Fitness", "Built-in", "Third Party", "46", "514", "398", "Total"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table II missing %q:\n%s", want, out)
		}
	}
}

func TestTableIIIRendering(t *testing.T) {
	sr := quickStudy(t)
	out := TableIII(experiments.TableIII(sr))
	for _, want := range []string{"TABLE III", "Campaign", "Reboot", "Crash", "Hang", "NoEffect"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table III missing %q", want)
		}
	}
	if strings.Count(out, "A: Semi-valid") != 1 {
		t.Error("campaign A row missing")
	}
}

func TestTableIVRendering(t *testing.T) {
	rows := []experiments.TableIVRow{
		{Class: javalang.ClassNullPointer, Crashes: 54, Share: 0.309},
		{Class: javalang.ClassClassNotFound, Crashes: 46, Share: 0.263},
	}
	out := TableIV(rows, experiments.TableIVRow{Class: "Others", Crashes: 12, Share: 0.069}, 175)
	for _, want := range []string{"TABLE IV", "NullPointerException", "54", "30.9%", "Others", "175"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table IV missing %q:\n%s", want, out)
		}
	}
}

func TestTableVRendering(t *testing.T) {
	rows := []experiments.TableVRow{
		{Experiment: "Semi-valid", InjectedEvents: 41405, Exceptions: 1496, ExceptionRate: 0.036, Crashes: 22, CrashRate: 0.0005},
		{Experiment: "Random", InjectedEvents: 41405, Exceptions: 615, ExceptionRate: 0.015, Crashes: 0, CrashRate: 0},
	}
	out := TableV(rows)
	for _, want := range []string{"TABLE V", "Semi-valid", "41405", "1496 (3.6%)", "22", "Random", "0 (0.00%)"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table V missing %q:\n%s", want, out)
		}
	}
}

func TestFigureRenderings(t *testing.T) {
	sr := quickStudy(t)
	f2 := Fig2(experiments.Fig2(sr))
	if !strings.Contains(f2, "FIG 2") || !strings.Contains(f2, "SecurityException excluded") {
		t.Errorf("Fig 2 header broken:\n%s", f2)
	}
	f3a := Fig3a(experiments.Fig3a(sr))
	for _, want := range []string{"FIG 3a", "No Effect", "Unresponsive", "Crash", "Reboot"} {
		if !strings.Contains(f3a, want) {
			t.Errorf("Fig 3a missing %q", want)
		}
	}
	f3b := Fig3b(experiments.Fig3b(sr), experiments.Fig3a(sr))
	if !strings.Contains(f3b, "FIG 3b") {
		t.Error("Fig 3b header missing")
	}
	f4 := Fig4(experiments.Fig4(sr))
	for _, want := range []string{"FIG 4", "Built-in", "Third Party", "reported crashes"} {
		if !strings.Contains(f4, want) {
			t.Errorf("Fig 4 missing %q", want)
		}
	}
}

func TestBarClamping(t *testing.T) {
	if got := bar(2.0, 10); got != strings.Repeat("#", 10) {
		t.Errorf("bar(2.0) = %q", got)
	}
	if got := bar(0, 10); got != "" {
		t.Errorf("bar(0) = %q", got)
	}
}

func TestTableAlignment(t *testing.T) {
	tb := &table{header: []string{"A", "LongHeader"}}
	tb.add("xxxxxxxx", "y")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("table lines = %d", len(lines))
	}
	if len(lines[0]) != len(lines[2]) {
		t.Errorf("misaligned table:\n%s", out)
	}
}

func TestManifestationNamesUsedInFigures(t *testing.T) {
	counts := map[analysis.Manifestation]int{
		analysis.ManifestNoEffect: 10,
		analysis.ManifestCrash:    2,
	}
	out := Fig3a(counts)
	if !strings.Contains(out, "12 COMPONENTS") {
		t.Errorf("Fig 3a total wrong:\n%s", out)
	}
}

func TestFig4OriginsOrdered(t *testing.T) {
	s := experiments.Fig4Series{
		CrashAppRate: map[manifest.Origin]float64{manifest.BuiltIn: 0.64, manifest.ThirdParty: 0.46},
		ClassCounts:  map[manifest.Origin][]analysis.ClassCount{},
	}
	out := Fig4(s)
	bi := strings.Index(out, "Built-in")
	tp := strings.Index(out, "Third Party")
	if bi < 0 || tp < 0 || bi > tp {
		t.Errorf("Fig 4 origin order broken:\n%s", out)
	}
}
