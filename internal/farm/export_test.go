package farm

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/wearos"
)

// BootFresh is the status-board boot source of a fresh-boot oracle unit.
const BootFresh = "fresh-boot"

// UseFreshBoot switches every executor in the test binary onto the
// fresh-boot oracle: each unit boots a new device and builds its package's
// fleet from scratch, sharing nothing with the plan's templates, the hot
// device or any earlier unit. It records no boot telemetry. The returned func
// switches the oracle off again; t.Cleanup does too, so a failing test
// cannot leak it into the next one.
func UseFreshBoot(t testing.TB) (off func()) {
	freshBoot = func(kind apps.FleetKind, seed uint64, pkg string) (*apps.Fleet, *wearos.OS, string, error) {
		fleet, err := apps.BuildFleetPackage(kind, seed, pkg)
		if err != nil {
			return nil, nil, "", err
		}
		dev := wearos.New(deviceConfig(kind))
		if _, err := fleet.InstallPackageInto(dev, pkg); err != nil {
			return nil, nil, "", err
		}
		return fleet, dev, BootFresh, nil
	}
	off = func() { freshBoot = nil }
	t.Cleanup(off)
	return off
}
