package report

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/farm"
	"repro/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite the aging-study golden exports in testdata/")

// TestAgingStudyGolden pins the single-device aging study's export byte for
// byte: all four campaigns against two packages on one device that is never
// reset, so instability carried from one unit into the next shapes the
// result. The wear run is full scale, where the two escalation carriers
// reboot the watch once each. Timing-valued histogram fields (wall-clock
// seconds) are zeroed; their observation counts stay pinned. Regenerate
// with `go test ./internal/report -run AgingStudyGolden -update`.
func TestAgingStudyGolden(t *testing.T) {
	cases := []struct {
		fleet string
		run   func(farm.Config) (*farm.Result, error)
		opts  farm.Config
	}{
		{"wear", experiments.RunWearStudy, farm.Config{
			Seed:     1,
			Aging:    farm.PaperAging(),
			Packages: []string{"com.motorola.omni", "com.google.android.deskclock"},
		}},
		{"phone", experiments.RunPhoneStudy, farm.Config{
			Seed:     1,
			Aging:    farm.PaperAging(),
			Gen:      experiments.QuickGen(3),
			Packages: []string{"com.android.chrome", "com.android.settings"},
		}},
		{"legacy-phone", experiments.RunLegacyPhoneStudy, farm.Config{
			Seed:     1,
			Aging:    farm.PaperAging(),
			Gen:      experiments.QuickGen(3),
			Packages: []string{"com.android.chrome", "com.android.settings"},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.fleet, func(t *testing.T) {
			sr, err := tc.run(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			exp := ExportStudy(sr, tc.opts.Seed)
			if len(exp.Campaigns) != 4 {
				t.Fatalf("campaigns = %d, want all four", len(exp.Campaigns))
			}
			if tc.fleet == "wear" && exp.Reboots < 1 {
				t.Fatalf("wear reboots = %d; the golden must cover aging across units", exp.Reboots)
			}
			if exp.Telemetry == nil {
				t.Fatal("export carries no device telemetry block")
			}
			for name, h := range exp.Telemetry.Histograms {
				if strings.Contains(name, "_seconds") {
					exp.Telemetry.Histograms[name] = telemetry.HistogramSnapshot{Count: h.Count}
				}
			}
			got, err := MarshalStudy(&exp)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "aging_"+tc.fleet+".json")
			if *updateGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s export diverged from %s (rerun with -update only for an intended change)", tc.fleet, path)
			}
		})
	}
}
