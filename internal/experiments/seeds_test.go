package experiments

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/farm"
	"repro/internal/javalang"
	"repro/internal/manifest"
)

// TestSeedRobustness re-runs reduced-scale wear studies under several
// seeds and asserts the paper's *qualitative* findings survive re-sampling
// of the synthetic fleet: the reproduction must not hinge on one lucky
// seed. (Scenario components are seed-independent; the statistical layers
// re-sample.)
func TestSeedRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep skipped in -short mode")
	}
	for _, seed := range []uint64{2, 3, 5} {
		seed := seed
		sr, err := RunWearStudy(farm.Config{Seed: seed, Gen: QuickGen(3), Aging: farm.PaperAging()})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		// Finding 1: SecurityException dominates all exceptions.
		if share := sr.Combined.SecurityShare(); share < 0.70 {
			t.Errorf("seed %d: security share = %.3f, want dominant", seed, share)
		}

		// Finding 2: crash is the dominant error manifestation and most
		// components are unaffected.
		mc := Fig3a(sr)
		total := 0
		for _, n := range mc {
			total += n
		}
		noEffect := float64(mc[analysis.ManifestNoEffect]) / float64(total)
		if noEffect < 0.80 {
			t.Errorf("seed %d: no-effect share = %.3f", seed, noEffect)
		}
		if mc[analysis.ManifestCrash] <= mc[analysis.ManifestUnresponsive] {
			t.Errorf("seed %d: crash %d not dominant over unresponsive %d",
				seed, mc[analysis.ManifestCrash], mc[analysis.ManifestUnresponsive])
		}

		// Finding 3: built-in apps crash at a higher rate than third-party
		// (quota-pinned, so it must hold for every seed).
		f4 := Fig4(sr)
		bi, tp := f4.CrashAppRate[manifest.BuiltIn], f4.CrashAppRate[manifest.ThirdParty]
		if bi <= tp {
			t.Errorf("seed %d: built-in rate %.2f <= third-party %.2f", seed, bi, tp)
		}

		// Finding 4: IllegalArgumentException is the top non-security
		// class (Fig. 2's ordering).
		dist := sr.Combined.UncaughtClassDistribution(false)
		if len(dist) == 0 || dist[0].Class != javalang.ClassIllegalArgument {
			t.Errorf("seed %d: top non-security class = %v", seed, dist)
		}
	}
}
