package experiments

import (
	"repro/internal/apps"
	"repro/internal/farm"
)

// runFarmStudy executes the study on the farm engine and adapts the merged
// farm result to the StudyResult shape every table and figure function
// consumes. Without sharding it runs an aging plan: the (campaign, package)
// units in order on one device that is never reset, the paper's design,
// with triage off. With sharding each unit is an independent shard on a
// worker pool, starting from the booted template state, with
// checkpoint/resume and crash triage.
//
// Determinism note: a sharded run with workers=1 is byte-identical to any
// other worker count for the same seed. It intentionally differs from the
// aging study, where every unit runs on the device the previous ones aged
// (see docs/farm.md).
func runFarmStudy(kind apps.FleetKind, opts Options) (*StudyResult, error) {
	aging := !opts.Sharding.Enabled()
	cfg := farm.Config{
		Seed:          opts.Seed,
		Fleet:         kind,
		Campaigns:     opts.Campaigns,
		Packages:      opts.Packages,
		Gen:           opts.Gen,
		Aging:         aging,
		Sharding:      opts.Sharding,
		DisableTriage: aging,
		Telemetry:     opts.Telemetry,
		Status:        opts.Status,
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
		Fleet:     fres.Fleet,
		Device:    fres.Device,
		Campaigns: fres.Campaigns,
		Combined:  fres.Combined,
		Sent:      fres.Sent,
		Triage:    fres.Triage,
	}
	if !aging {
		sr.Sharding = &ShardingInfo{
			Workers:    fres.Workers,
			Shards:     fres.Shards,
			Resumed:    fres.Resumed,
			Checkpoint: opts.Sharding.Checkpoint,
		}
	}
	return sr, nil
}
