// Package experiments runs the paper's studies end-to-end: build a fleet,
// boot a simulated device, drive QGJ's campaigns against every app,
// analyze the logs, and aggregate the tables and figures. Both the
// benchmark harness (bench_test.go) and cmd/report regenerate every paper
// artifact through this package.
package experiments

import (
	"repro/internal/analysis"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/farm"
	"repro/internal/telemetry"
	"repro/internal/triage"
	"repro/internal/wearos"
)

// Options configures a study run.
type Options struct {
	// Seed drives fleet construction and intent generation.
	Seed uint64
	// Gen scales generation; zero value = full paper scale.
	Gen core.GeneratorConfig
	// Packages optionally restricts the run to the named packages (tests);
	// nil fuzzes the whole fleet. A name not in the fleet is an error.
	Packages []string
	// Campaigns optionally restricts the run to the listed FICs; nil runs
	// all four in Table I order.
	Campaigns []core.Campaign
	// Progress, when non-nil, is called after each (campaign, app) unit.
	Progress func(campaign core.Campaign, pkg string, sentSoFar int)
	// Sharding, when enabled (any workers or a checkpoint path), runs the
	// study as independent shards: device-per-shard parallel execution with
	// checkpoint/resume and crash triage. Disabled, the study is the
	// paper's aging design: one device that ages across every app and
	// campaign. Both run on the farm engine; see docs/farm.md for how
	// their results relate.
	Sharding core.Sharding
	// Telemetry, when non-nil, receives farm execution metrics (an aging
	// study's device additionally carries its own registry).
	Telemetry *telemetry.Registry
	// Status, when non-nil, is kept current with the farm's live shard
	// table — serve it with farm.StatusHandler.
	Status *farm.StatusBoard
}

// CampaignOutcome holds the per-campaign view needed for Table III.
type CampaignOutcome = farm.CampaignResult

// StudyResult is the complete outcome of one fuzzing study.
type StudyResult struct {
	Fleet *apps.Fleet
	// Device is the single simulated device of an aging study; nil for
	// sharded runs, which boot one device per shard.
	Device    *wearos.OS
	Campaigns []CampaignOutcome
	// Combined merges the per-campaign reports (Figs. 2-4, Table IV).
	Combined *analysis.Report
	Sent     int
	// Triage holds deduplicated crash buckets (sharded runs only; nil for
	// an aging study).
	Triage *triage.Result
	// Sharding describes how a sharded run executed; nil for an aging
	// study.
	Sharding *ShardingInfo
}

// ShardingInfo records how a sharded study was executed.
type ShardingInfo struct {
	Workers    int
	Shards     int
	Resumed    int
	Checkpoint string
}

// Reboots returns how many device reboots occurred across the study.
func (sr *StudyResult) Reboots() int {
	n := 0
	for _, c := range sr.Campaigns {
		n += len(c.Report.RebootTimes)
	}
	return n
}

// CampaignOutcomeFor returns the outcome for campaign c, or nil.
func (sr *StudyResult) CampaignOutcomeFor(c core.Campaign) *CampaignOutcome {
	for i := range sr.Campaigns {
		if sr.Campaigns[i].Campaign == c {
			return &sr.Campaigns[i]
		}
	}
	return nil
}

// RunWearStudy executes the QGJ-Master study on the simulated watch: all
// four campaigns against the Table II fleet.
func RunWearStudy(opts Options) (*StudyResult, error) {
	return runFarmStudy(apps.WearFleet, opts)
}

// RunPhoneStudy executes the comparison study on the simulated Android
// phone (Table IV).
func RunPhoneStudy(opts Options) (*StudyResult, error) {
	return runFarmStudy(apps.PhoneFleet, opts)
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
