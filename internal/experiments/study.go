// Package experiments runs the paper's studies end-to-end: build a fleet,
// boot a simulated device, drive QGJ's campaigns against every app,
// analyze the logs, and aggregate the tables and figures. Both the
// benchmark harness (bench_test.go) and cmd/report regenerate every paper
// artifact through this package.
//
// The campaign studies are farm runs: they take a farm.Config and return
// the merged *farm.Result. The paper's design, one watch aging across every
// app and campaign, is Config.Aging; without it each (campaign, package)
// unit is an independent shard with checkpoint/resume and crash triage
// (see docs/farm.md for how the two relate).
package experiments

import (
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/farm"
)

// RunWearStudy executes the QGJ-Master study on the simulated watch: all
// four campaigns against the Table II fleet. cfg.Fleet is ignored.
func RunWearStudy(cfg farm.Config) (*farm.Result, error) {
	cfg.Fleet = apps.WearFleet
	return farm.Run(cfg)
}

// RunPhoneStudy executes the comparison study on the simulated Android
// phone (Table IV). cfg.Fleet is ignored.
func RunPhoneStudy(cfg farm.Config) (*farm.Result, error) {
	cfg.Fleet = apps.PhoneFleet
	return farm.Run(cfg)
}

// QuickGen returns a scaled-down generator configuration for tests and
// fast demo runs: roughly 1/k^2 of campaign A's volume.
func QuickGen(k int) core.GeneratorConfig {
	if k < 1 {
		k = 1
	}
	return core.GeneratorConfig{
		ActionStride:   k,
		SchemeStride:   (k + 1) / 2,
		RandomVariants: 1,
		ExtrasVariants: 1,
	}
}
