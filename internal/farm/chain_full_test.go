//go:build !race

package farm_test

import (
	"testing"

	"repro/internal/core"
)

// TestAgingPlanIsIndependentPackageChainsFullScale checks the package-chain
// relation at the paper's scale, where every seed reboots the watch twice.
// It takes seconds natively and minutes under the race detector, so race
// builds leave it out.
func TestAgingPlanIsIndependentPackageChainsFullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale aging plans")
	}
	for _, seed := range []uint64{1, 2, 3, 5} {
		checkPackageChains(t, seed, core.GeneratorConfig{}, 2)
	}
}
