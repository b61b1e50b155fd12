package experiments

import (
	"repro/internal/apps"
	"repro/internal/farm"
)

// runFarmStudy executes the study on the farm engine — (campaign, package)
// shards on a worker pool, each starting from the booted template state,
// checkpoint/resume, and crash triage — and adapts the merged farm result to the StudyResult shape every
// table and figure function consumes.
//
// Determinism note: a farm run with workers=1 is the farm's own serial
// baseline and is byte-identical to any other worker count for the same
// seed. It intentionally differs from the single-device runStudy path,
// where all shards share one aging device (see docs/farm.md).
func runFarmStudy(kind apps.FleetKind, opts Options) (*StudyResult, error) {
	cfg := farm.Config{
		Seed:      opts.Seed,
		Fleet:     kind,
		Campaigns: opts.Campaigns,
		Packages:  opts.Packages,
		Gen:       opts.Gen,
		Sharding:  opts.Sharding,
		Telemetry: opts.Telemetry,
		Status:    opts.Status,
	}
	if opts.Progress != nil {
		cfg.Progress = func(done, total int, key farm.ShardKey, sentSoFar int) {
			opts.Progress(key.Campaign, key.Package, sentSoFar)
		}
	}
	fres, err := farm.Run(cfg)
	if err != nil {
		return nil, err
	}
	sr := &StudyResult{
		Fleet:    fres.Fleet,
		Combined: fres.Combined,
		Sent:     fres.Sent,
		Triage:   fres.Triage,
		Sharding: &ShardingInfo{
			Workers:    fres.Workers,
			Shards:     fres.Shards,
			Resumed:    fres.Resumed,
			Checkpoint: opts.Sharding.Checkpoint,
		},
	}
	for _, cr := range fres.Campaigns {
		sr.Campaigns = append(sr.Campaigns, CampaignOutcome{
			Campaign:  cr.Campaign,
			Report:    cr.Report,
			Sent:      cr.Sent,
			Summaries: cr.Summaries,
		})
	}
	return sr, nil
}
