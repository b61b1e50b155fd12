// The planning/execution/merge surface. A run is four steps, each a
// first-class call so they can be split across processes:
//
//	NewPlan        the canonical shard plan, LPT order and fingerprint
//	OpenJournal    the fsynced JSONL checkpoint as a durable work-queue log
//	NewExecutor    a persistent shard runner (one per executing goroutine)
//	Merge          canonical-order merge + triage over complete results
//
// plus Encode/DecodeShardRecord, the journal's wire form, reused for
// uploads, and the StatusBoard, the shard table both compositions drain.
// farm.Run composes the four in one process with a goroutine pool taking
// shards from the board; the coordinator/worker service (internal/service)
// composes the same four across machines, granting the board's shards as
// leases.
//
// The determinism contract carries over unchanged: an executor derives the
// shard seed from the plan seed via rng.Split on the shard key, so a shard
// executed on a remote worker returns byte-identical merge inputs to one
// executed in-process, and Merge over any assignment of shards to workers
// (including leases reclaimed from killed workers and re-executed) equals
// the single-process run.
package farm

import (
	"fmt"
	"os"
	"slices"
	"time"

	"repro/internal/analysis"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/wearos"
)

// Plan is the canonical shard plan for a Config: the work-queue contents a
// coordinator serves and the execution recipe a worker follows. Plans are
// immutable after NewPlan; the same Config always yields the same plan and
// the same Fingerprint.
//
// A plan owns the run's boot templates, forkserver style: the population
// (tmpl), from which executors (persist.go) instantiate one package's
// behaviour per shard, and the booted device (snap), from which they clone
// or reset shard devices. Clones are observably identical to fresh boots
// (the snapshot determinism contract). Both are immutable, so every
// executor of the plan shares them.
type Plan struct {
	cfg  Config
	tmpl *apps.FleetTemplate
	snap *wearos.Snapshot
	// fleet is tmpl's metadata view: the targets, Result.Fleet and the
	// triage oracle's component lookups.
	fleet *apps.Fleet
	met   farmMetrics
	// campaigns is the normalized campaign list (Config.Campaigns or all
	// four), shards the canonical campaign-major shard order.
	campaigns []core.Campaign
	shards    []ShardKey
	// fingerprint covers everything that shapes shard outcomes (seed,
	// fleet, plan, generator scaling) — the same value the checkpoint
	// journal header carries, embedded in every service lease so a worker
	// can never execute a shard from the wrong run.
	fingerprint uint64
	// est is each shard's exact intent volume; order lists every shard
	// index largest-est first, ties in plan order.
	est   []int
	order []int
}

// NewPlan normalizes cfg and builds the canonical shard plan: the boot
// templates, target selection, campaign-major shard enumeration, the LPT
// dispatch order, and fingerprinting.
func NewPlan(cfg Config) (*Plan, error) {
	campaigns := cfg.Campaigns
	if len(campaigns) == 0 {
		campaigns = core.AllCampaigns
	}
	// A repeated campaign would plan two shards under one ShardKey, and
	// Merge would then fold both into each of them.
	for i, c := range campaigns {
		if slices.Contains(campaigns[:i], c) {
			return nil, fmt.Errorf("farm: campaign %s listed twice", c.Letter())
		}
	}
	if cfg.Aging != nil {
		switch {
		case slices.Contains(campaigns, core.CampaignF):
			return nil, fmt.Errorf("farm: campaign F attaches its fault engine to a fresh device per unit; an aging plan cannot run it")
		case cfg.Sharding.Checkpoint != "" || cfg.Sharding.Resume:
			return nil, fmt.Errorf("farm: an aging plan cannot checkpoint (a journal cannot restore a half-aged device)")
		case cfg.Sharding.Workers > 1:
			return nil, fmt.Errorf("farm: an aging plan runs on one device, not %d workers", cfg.Sharding.Workers)
		}
	}
	kind := cfg.Fleet
	if kind == 0 {
		kind = apps.WearFleet
	}
	tmpl, err := apps.NewFleetTemplate(kind, cfg.Seed)
	if err != nil {
		return nil, err
	}
	snap, err := wearos.BootSnapshot(deviceConfig(kind))
	if err != nil {
		return nil, err
	}
	fleet := tmpl.Metadata()
	targets, err := selectTargets(fleet, cfg.Packages)
	if err != nil {
		return nil, err
	}
	var shards []ShardKey
	var est []int
	for _, c := range campaigns {
		for _, p := range targets {
			shards = append(shards, ShardKey{Campaign: c, Package: p.Name})
			est = append(est, c.CountPerComponent(cfg.Gen)*fuzzableComponents(p))
		}
	}
	if len(shards) == 0 {
		return nil, fmt.Errorf("farm: empty shard plan (no packages matched)")
	}
	// Shard cost is known exactly up front, so the classic LPT bound
	// applies: dispatching the largest shards first keeps the
	// last-finishing worker's overhang to at most one small shard. The
	// stable sort keeps ties in plan order, so the schedule (and the
	// journal append order under one worker) is deterministic. An aging
	// plan's order is its result, so it keeps plan order.
	order := make([]int, len(shards))
	for i := range order {
		order[i] = i
	}
	if cfg.Aging == nil {
		slices.SortStableFunc(order, func(a, b int) int { return est[b] - est[a] })
	}
	return &Plan{
		cfg:         cfg,
		tmpl:        tmpl,
		snap:        snap,
		fleet:       fleet,
		met:         newFarmMetrics(cfg.Telemetry),
		campaigns:   campaigns,
		shards:      shards,
		fingerprint: fingerprint(cfg.Seed, kind.String(), shards, cfg.Gen),
		est:         est,
		order:       order,
	}, nil
}

// Shards returns the canonical shard order. Callers must not mutate it.
func (p *Plan) Shards() []ShardKey { return p.shards }

// Fingerprint identifies the run this plan describes; it equals the
// checkpoint journal's header fingerprint.
func (p *Plan) Fingerprint() uint64 { return p.fingerprint }

// FleetKind returns the normalized population kind.
func (p *Plan) FleetKind() apps.FleetKind { return p.tmpl.Kind() }

// EstimatedIntents returns shard idx's exact intent volume — the LPT
// scheduling weight.
func (p *Plan) EstimatedIntents(idx int) int { return p.est[idx] }

// Order returns every shard index in dispatch order: largest
// EstimatedIntents first, ties in plan order (an aging plan: plan order). StatusBoard.Next hands out
// pending shards in this order, to Run's pool and the coordinator's leases
// alike. Callers must not mutate it.
func (p *Plan) Order() []int { return p.order }

// Merge folds one complete result set, in canonical plan order, into
// per-campaign and combined reports and runs triage (unless the plan's
// Config disables it or is an aging plan). Every slot must hold the result for the
// same-indexed shard; order of arrival is irrelevant by construction.
func (p *Plan) Merge(results []*ShardResult) (*Result, error) {
	if len(results) != len(p.shards) {
		return nil, fmt.Errorf("farm: merge needs %d shard results, got %d", len(p.shards), len(results))
	}
	for i, sr := range results {
		if sr == nil {
			return nil, fmt.Errorf("farm: merge: shard %d (%s) has no result", i, p.shards[i])
		}
		if sr.Key != p.shards[i] {
			return nil, fmt.Errorf("farm: merge: slot %d holds %s, want %s", i, sr.Key, p.shards[i])
		}
	}
	start := time.Now()
	res := &Result{Fleet: p.fleet, Combined: analysis.AnalyzeEntries(nil), Shards: len(p.shards)}
	// Plan order is campaign-major, so each campaign's shards are a
	// contiguous run.
	byCampaign := make(map[core.Campaign]*CampaignResult, len(p.campaigns))
	for _, c := range p.campaigns {
		byCampaign[c] = &CampaignResult{Campaign: c, Report: analysis.AnalyzeEntries(nil)}
	}
	for i, key := range p.shards {
		sr := results[i]
		cr := byCampaign[key.Campaign]
		cr.Report.Merge(sr.Report)
		cr.Sent += sr.Sent
		cr.Summaries = append(cr.Summaries, sr.Summary)
	}
	for _, c := range p.campaigns {
		cr := byCampaign[c]
		res.Campaigns = append(res.Campaigns, *cr)
		res.Combined.Merge(cr.Report)
		res.Sent += cr.Sent
	}
	p.met.mergeSeconds.Observe(time.Since(start).Seconds())
	if p.cfg.triages() {
		res.Triage = p.triageCrashes(results)
		p.met.crashesRaw.Set(float64(res.Triage.Crashes))
		p.met.crashBuckets.Set(float64(res.Triage.Unique()))
	}
	return res, nil
}

// OpenJournal creates (or, with resume, reloads) the checkpoint journal at
// path for this plan. It returns the restored results indexed by shard —
// the durable done-set; every nil slot is pending work — and how many were
// restored. A journal written by a different plan (fingerprint mismatch)
// is refused, and resuming a journal that was never written starts fresh.
func (p *Plan) OpenJournal(path string, resume bool) (*ShardJournal, []*ShardResult, int, error) {
	results := make([]*ShardResult, len(p.shards))
	if resume {
		prev, done, validLen, err := loadJournal(path)
		switch {
		case err == nil:
			if prev.Fingerprint != p.fingerprint {
				return nil, nil, 0, fmt.Errorf(
					"farm: checkpoint %s was written by a different run (fingerprint %016x, want %016x); refusing to resume",
					path, prev.Fingerprint, p.fingerprint)
			}
			for idx, rec := range done {
				if idx < 0 || idx >= len(p.shards) || p.shards[idx] != rec.Key {
					return nil, nil, 0, fmt.Errorf("farm: checkpoint %s: record %d does not match the shard plan", path, idx)
				}
				if results[idx], err = rec.result(); err != nil {
					return nil, nil, 0, fmt.Errorf("farm: checkpoint %s: %w", path, err)
				}
			}
			jnl, err := openJournalAppend(path, validLen)
			if err != nil {
				return nil, nil, 0, err
			}
			return jnl, results, len(done), nil
		case !os.IsNotExist(err):
			return nil, nil, 0, err
		}
	}
	jnl, err := createJournal(path, journalHeader{
		Version:     journalVersion,
		Fingerprint: p.fingerprint,
		Shards:      len(p.shards),
		Seed:        p.cfg.Seed,
		Fleet:       p.tmpl.Kind().String(),
	})
	if err != nil {
		return nil, nil, 0, err
	}
	return jnl, results, 0, nil
}
