// Package service turns the single-process fuzzing farm into
// fuzzing-as-a-service: a long-running coordinator that hosts many
// concurrent campaigns and a worker protocol that shards them across the
// network.
//
// The split preserves the farm's determinism contract end to end:
//
//   - The coordinator plans each submitted campaign with farm.NewPlan —
//     the same canonical (campaign, package) shard order and the same plan
//     fingerprint the checkpoint journal uses.
//   - Workers lease shards over HTTP. Every lease embeds the plan
//     fingerprint and the full campaign spec; the worker re-derives the
//     plan locally and refuses the lease if its fingerprint disagrees, so
//     a worker can never execute a shard from the wrong run.
//   - Shard results cross the wire in the checkpoint journal's own record
//     format, and the coordinator appends the uploaded bytes verbatim to
//     the campaign's fsynced JSONL journal — the journal IS the durable
//     work queue. A coordinator restart replays it exactly like -resume.
//   - Leases expire: a worker that dies mid-shard simply stops
//     heartbeating, the reaper returns the shard to the queue, and another
//     worker re-executes it. Re-execution is harmless because shard
//     results are pure functions of (plan, shard index).
//   - When the last shard lands the coordinator merges in canonical plan
//     order and runs triage, exactly like farm.Run — so the merged report
//     is byte-identical to a single-process run of the same spec, however
//     many workers took part and however many died.
//
// Triage buckets additionally stream while the campaign runs: each
// uploaded shard's crash records feed a triage.Stream whose update log
// (bucket births and growth, with exemplar intents and flight-recorder
// windows) is served incrementally over HTTP.
package service

import (
	"fmt"
	"strings"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/farm"
)

// CampaignSpec is the submission body: everything that identifies a
// campaign's work. Two specs that normalize equal produce equal plans and
// equal fingerprints — and therefore byte-identical merged reports.
type CampaignSpec struct {
	// Seed drives fleet construction and per-shard generator splits.
	Seed uint64 `json:"seed"`
	// Fleet selects the population: "wear" (default), "phone", or
	// "legacy-phone" (the intent-campaign fleets the farm supports).
	Fleet string `json:"fleet,omitempty"`
	// Campaigns is a subset of "ABCDF" (e.g. "AC", or "F" for the fault
	// injection campaign); empty means the paper's four (A-D).
	Campaigns string `json:"campaigns,omitempty"`
	// Packages restricts the run to the named packages; empty fuzzes the
	// whole fleet.
	Packages []string `json:"packages,omitempty"`
	// Quick scales generation down like the CLIs' -quick flag (k shrinks
	// campaign volume ~k²); 0 means full paper scale.
	Quick int `json:"quick,omitempty"`
	// DisableTriage skips crash bucketing and minimization.
	DisableTriage bool `json:"disableTriage,omitempty"`
}

// parseFleet maps a spec's fleet name to the farm-supported kinds.
func parseFleet(name string) (apps.FleetKind, error) {
	switch strings.TrimSpace(name) {
	case "", "wear":
		return apps.WearFleet, nil
	case "phone":
		return apps.PhoneFleet, nil
	case "legacy-phone":
		return apps.LegacyPhoneFleet, nil
	default:
		return 0, fmt.Errorf("service: unsupported fleet %q (want wear, phone, or legacy-phone)", name)
	}
}

// FarmConfig converts the spec into the farm.Config both sides plan from.
// The conversion is deterministic: coordinator and worker derive the same
// plan (and fingerprint) from the same spec.
func (s CampaignSpec) FarmConfig() (farm.Config, error) {
	kind, err := parseFleet(s.Fleet)
	if err != nil {
		return farm.Config{}, err
	}
	var campaigns []core.Campaign
	for _, r := range strings.ToUpper(strings.TrimSpace(s.Campaigns)) {
		c, err := core.ParseCampaign(string(r))
		if err != nil {
			return farm.Config{}, fmt.Errorf("service: campaigns %q: %w", s.Campaigns, err)
		}
		campaigns = append(campaigns, c)
	}
	gen := core.GeneratorConfig{}
	if s.Quick > 0 {
		gen = experiments.QuickGen(s.Quick)
	}
	return farm.Config{
		Seed:          s.Seed,
		Fleet:         kind,
		Campaigns:     campaigns,
		Packages:      s.Packages,
		Gen:           gen,
		DisableTriage: s.DisableTriage,
	}, nil
}

// Plan builds the canonical shard plan for the spec. Both the coordinator
// (to seed the queue) and workers (to verify leases and execute shards)
// call this; equal specs yield equal plans.
func (s CampaignSpec) Plan() (*farm.Plan, error) {
	cfg, err := s.FarmConfig()
	if err != nil {
		return nil, err
	}
	return farm.NewPlan(cfg)
}
