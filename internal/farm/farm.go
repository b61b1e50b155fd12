// Package farm is the campaign execution engine: it shards a fuzz study
// into independent (campaign, package) work units, runs them on a pool of
// worker goroutines — each worker resetting one hot simulated device in
// place between its units — commits every completed shard on one goroutine
// (journaling the waiting records to a checkpoint file with one fsync
// before any of them counts as done), and merges the per-shard analysis
// results into a single report.
//
// The determinism contract (docs/farm.md): for a fixed seed and shard plan,
// the merged result is byte-identical for any worker count and across any
// kill/resume sequence. Three properties make that hold:
//
//  1. Intent generation splits a fresh SplitMix64 stream per shard
//     (rng.Split on the shard key), so no shard's randomness depends on
//     execution order.
//  2. Every shard starts from the same booted template state with its own
//     freshly rewound fleet behaviour state (persist.go validates every
//     reset against the template), so no simulator or behaviour-model
//     state leaks between shards or workers.
//  3. Merging happens in canonical shard-plan order after all shards
//     complete, regardless of completion order.
//
// The simulated device itself stays single-threaded; parallelism exists
// only between devices, which is exactly how the paper's physical campaigns
// would scale across watches.
//
// An aging plan (Config.Aging) gives up properties 1 and 2 by design: the
// paper's single watch, every unit in plan order on one never-reset device.
package farm

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/intent"
	"repro/internal/jsonw"
	"repro/internal/manifest"
	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/triage"
	"repro/internal/wearos"
)

// Config parameterizes one farm run.
type Config struct {
	// Seed drives fleet construction and the per-shard generator splits.
	Seed uint64
	// Fleet selects the population (zero value = the wear fleet).
	Fleet apps.FleetKind
	// Campaigns lists the FICs to run (nil = all four, in Table I order).
	Campaigns []core.Campaign
	// Packages optionally restricts the run to the named packages; nil
	// fuzzes the whole fleet. Order is irrelevant — the shard plan always
	// follows fleet order.
	Packages []string
	// Gen scales generation. Gen.Seed is ignored: each shard derives its
	// seed from Config.Seed via rng.Split on the shard key (an aging plan's
	// units all use Config.Seed).
	Gen core.GeneratorConfig
	// Aging, when non-nil, makes this an aging plan: the units run in plan
	// order on one device with the whole fleet installed, booted with this
	// aging model (PaperAging for the paper's) and never reset, so
	// system-server aging carries from each unit into the next (the paper's
	// reboots). It never triages, and it refuses campaign F, a checkpoint
	// and more than one worker. Nil plans independent shards.
	Aging *wearos.AgingConfig
	// Sharding sets worker count and checkpoint behaviour.
	Sharding core.Sharding
	// DisableTriage skips crash bucketing and intent minimization.
	DisableTriage bool
	// Telemetry, when non-nil, receives farm execution metrics (shard
	// gauges, per-campaign intent counters, shard/merge latency
	// histograms). Each shard additionally runs its device with a private
	// registry that is absorbed into this one when the shard completes, so
	// the farm endpoint exposes device/fuzzer/binder/analysis metrics
	// aggregated across every shard. An aging plan's device meters into
	// this registry directly, and Result.Device.Telemetry returns it.
	Telemetry *telemetry.Registry
	// Status, when non-nil, is the board Run schedules from (nil uses a
	// private one): the live shard table (state, queue wait, boot source,
	// throughput, ETA); serve it with StatusHandler. The table decides
	// dispatch order only, never results.
	Status *StatusBoard
	// Progress, when non-nil, is called after every completed shard with
	// the cumulative completed/total counts and intents sent so far. Every
	// call comes from Run's own goroutine, so calls are serialized; they
	// arrive in commit order, not plan order. With a checkpoint that is
	// durability order: a shard is reported only once its journal record is
	// fsynced.
	Progress func(done, total int, key ShardKey, sentSoFar int)
}

// ShardKey identifies one work unit: one campaign against one package.
type ShardKey struct {
	Campaign core.Campaign `json:"campaign"`
	Package  string        `json:"package"`
}

// String renders "A/com.foo.bar" — also the rng.Split label for the shard.
func (k ShardKey) String() string { return k.Campaign.Letter() + "/" + k.Package }

// ShardResult is everything one completed shard contributes to the merge.
type ShardResult struct {
	Key       ShardKey
	Seed      uint64
	Sent      int
	BootCount int
	Summary   core.Summary
	Report    *analysis.Report
	Crashes   []*triage.Crash
	// BootSource reports how the unit's device came up (BootReuse,
	// BootClone or BootAging); live-status detail only, excluded from the
	// journal and the merge.
	BootSource string
}

// CampaignResult is the merged per-campaign view (Table III's unit).
type CampaignResult struct {
	Campaign  core.Campaign
	Report    *analysis.Report
	Sent      int
	Summaries []core.Summary
}

// Result is the merged outcome of a farm run.
type Result struct {
	// Fleet is the canonical fleet instance (metadata: categories, origins).
	Fleet     *apps.Fleet
	Campaigns []CampaignResult
	// Combined merges the per-campaign reports.
	Combined *analysis.Report
	Sent     int
	// Shards is the plan size; Resumed counts shards restored from the
	// checkpoint journal instead of executed.
	Shards  int
	Resumed int
	Workers int
	// Triage holds deduplicated crash buckets (nil when DisableTriage or
	// for an aging plan).
	Triage *triage.Result
	// Device is an aging plan's single device as the run left it; nil for
	// shard plans, whose devices are reset between units.
	Device *wearos.OS
}

// Reboots counts the device reboots across every campaign of the run.
func (r *Result) Reboots() int {
	n := 0
	for _, c := range r.Campaigns {
		n += len(c.Report.RebootTimes)
	}
	return n
}

// triages reports whether the run buckets and minimizes its crashes. An
// aging plan never does: it is the paper's single-watch study, which has
// no triage stage.
func (c Config) triages() bool { return !c.DisableTriage && c.Aging == nil }

// PaperAging returns the paper's aging model (wearos.DefaultAgingConfig) in
// the form Config.Aging takes.
func PaperAging() *wearos.AgingConfig {
	a := wearos.DefaultAgingConfig()
	return &a
}

// farmMetrics caches the engine's metric handles (all nil-safe no-ops when
// Config.Telemetry is nil).
type farmMetrics struct {
	shardsTotal    *telemetry.Gauge
	inflight       *telemetry.Gauge
	workers        *telemetry.Gauge
	done           *telemetry.Counter
	resumed        *telemetry.Counter
	intents        *telemetry.Counter
	shardSeconds   *telemetry.Histogram
	mergeSeconds   *telemetry.Histogram
	crashesRaw     *telemetry.Gauge
	crashBuckets   *telemetry.Gauge
	cloneSeconds   *telemetry.Histogram
	queueWait      *telemetry.Histogram
	recorderEvents *telemetry.Counter
	// Persistent-executor outcomes: shards served by resetting a worker's
	// hot device in place, devices retired after a failed reset, and shards
	// that came up on a fresh clone (cold start or after a retirement).
	persistReuses    *telemetry.Counter
	persistRetires   *telemetry.Counter
	persistFallbacks *telemetry.Counter
	resetSeconds     *telemetry.Histogram
}

func newFarmMetrics(reg *telemetry.Registry) farmMetrics {
	return farmMetrics{
		shardsTotal:    reg.Gauge("farm_shards_total"),
		inflight:       reg.Gauge("farm_shards_inflight"),
		workers:        reg.Gauge("farm_workers"),
		done:           reg.Counter("farm_shards_done_total"),
		resumed:        reg.Counter("farm_shards_resumed_total"),
		intents:        reg.Counter("farm_intents_total"),
		shardSeconds:   reg.Histogram("farm_shard_seconds"),
		mergeSeconds:   reg.Histogram("farm_merge_seconds"),
		crashesRaw:     reg.Gauge("farm_crashes_raw"),
		crashBuckets:   reg.Gauge("farm_crash_buckets"),
		cloneSeconds:   reg.Histogram("farm_clone_seconds"),
		queueWait:      reg.Histogram("farm_shard_queue_wait_seconds"),
		recorderEvents: reg.Counter("farm_recorder_events_total"),

		persistReuses:    reg.Counter("farm_persist_reuses_total"),
		persistRetires:   reg.Counter("farm_persist_retires_total"),
		persistFallbacks: reg.Counter("farm_persist_fallbacks_total"),
		resetSeconds:     reg.Histogram("farm_reset_seconds"),
	}
}

// agingDeviceConfig returns the paper's device for the fleet kind, with its
// own telemetry registry: the aging plan's device, before bootAging gives it
// the plan's aging model (and the plan's registry, if any).
func agingDeviceConfig(kind apps.FleetKind) wearos.Config {
	switch kind {
	case apps.PhoneFleet, apps.LegacyPhoneFleet:
		return wearos.DefaultPhoneConfig()
	default:
		return wearos.DefaultWatchConfig()
	}
}

// deviceConfig returns the per-shard device configuration. Device-level
// telemetry is disabled: shard devices are ephemeral and their registries
// unreachable, and PR 1's perturbation tests guarantee telemetry does not
// affect simulation outcomes either way.
func deviceConfig(kind apps.FleetKind) wearos.Config {
	cfg := agingDeviceConfig(kind)
	cfg.DisableTelemetry = true
	return cfg
}

// Run executes the farm in one process by composing the Plan API: plan,
// load the shard table (restoring completed shards from the journal on
// resume), then run a pool of Executors that each take the next pending
// shard from the table until none is left, commit their outcomes on Run's
// own goroutine, and Merge. The service coordinator drains the same table,
// with leases in place of the pool.
func Run(cfg Config) (*Result, error) {
	p, err := NewPlan(cfg)
	if err != nil {
		return nil, err
	}
	met := p.met
	workers := cfg.Sharding.NormalizedWorkers()
	met.shardsTotal.Set(float64(len(p.shards)))
	met.workers.Set(float64(workers))
	board := cfg.Status
	if board == nil {
		board = NewStatusBoard()
	}
	board.Track(p, workers)
	if cfg.Telemetry != nil && cfg.Status != nil {
		board.meterInto(cfg.Telemetry)
	}

	resumed := 0
	var jnl *ShardJournal
	if cfg.Sharding.Checkpoint != "" {
		var restored []*ShardResult
		jnl, restored, resumed, err = p.OpenJournal(cfg.Sharding.Checkpoint, cfg.Sharding.Resume)
		if err != nil {
			return nil, err
		}
		defer jnl.Close()
		met.resumed.Add(uint64(resumed))
		for idx, sr := range restored {
			if sr != nil {
				board.Resume(idx, sr)
			}
		}
	}

	start := time.Now()
	// Workers only execute: each sends its shard's outcome to results and
	// goes on to the next shard, until none is pending or stop is set.
	var (
		wg      sync.WaitGroup
		results = make(chan executed, workers)
		stop    atomic.Bool
	)
	execs := make([]*Executor, min(workers, len(p.shards)-resumed))
	for i := range execs {
		execs[i] = p.NewExecutor()
		wg.Add(1)
		go func() {
			defer wg.Done()
			ex := execs[i]
			for !stop.Load() {
				wait := time.Since(start)
				idx, ok := board.Next(wait)
				if !ok {
					return
				}
				met.queueWait.Observe(wait.Seconds())
				met.inflight.Add(1)
				t0 := time.Now()
				sr, err := ex.ExecuteShard(idx)
				dur := time.Since(t0)
				met.shardSeconds.Observe(dur.Seconds())
				met.inflight.Add(-1)
				if err != nil {
					stop.Store(true)
				}
				results <- executed{idx, sr, dur, err}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// This goroutine is the only one that finishes a shard. It takes every
	// outcome waiting, journals the batch's records with one fsync when
	// checkpointing, and only then marks them done and reports them, so a
	// shard counts as done only once it is durable. After a failed append
	// nothing more is journaled or marked done.
	var (
		firstErr, jnlErr error
		batch            []executed
		w                jsonw.Writer
	)
	for e := range results {
		batch = append(batch[:0], e)
		for len(results) > 0 {
			batch = append(batch, <-results)
		}
		good := batch[:0]
		for _, e := range batch {
			if e.err != nil {
				board.Fail(e.idx)
				firstErr = cmp.Or(firstErr, fmt.Errorf("farm: shard %s: %w", p.shards[e.idx], e.err))
			} else {
				good = append(good, e)
			}
		}
		if jnl != nil && jnlErr == nil && len(good) > 0 {
			jnlErr = jnl.appendRecords(&w, good)
		}
		for _, e := range good {
			if jnlErr != nil {
				board.Fail(e.idx)
				continue
			}
			board.Done(e.idx, e.sr, e.dur, e.sr.BootSource)
			met.done.Inc()
			met.intents.Add(uint64(e.sr.Sent))
			if cfg.Progress != nil {
				t := board.Tally()
				cfg.Progress(t.Finished(), t.Total, e.sr.Key, t.IntentsTotal)
			}
		}
		firstErr = cmp.Or(firstErr, jnlErr)
		if firstErr != nil {
			stop.Store(true)
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	res, err := p.Merge(board.TakeResults())
	if err != nil {
		return nil, err
	}
	res.Resumed = resumed
	res.Workers = workers
	if cfg.Aging != nil {
		res.Device = execs[0].dev
	}
	return res, nil
}

// executed is one shard's outcome on its way from a worker to Run's
// commit loop.
type executed struct {
	idx int
	sr  *ShardResult
	dur time.Duration
	err error
}

// selectTargets filters the fleet packages, preserving fleet order, and
// rejects names that match nothing (a typo'd -app must not silently produce
// an empty campaign). Every unmatched name is reported, sorted, so the
// error reads the same on every run.
func selectTargets(fleet *apps.Fleet, names []string) ([]*manifest.Package, error) {
	if len(names) == 0 {
		return fleet.Packages, nil
	}
	allow := make(map[string]bool, len(names))
	for _, n := range names {
		allow[n] = true
	}
	var out []*manifest.Package
	for _, p := range fleet.Packages {
		if allow[p.Name] {
			out = append(out, p)
			delete(allow, p.Name)
		}
	}
	if len(allow) > 0 {
		var missing []string
		for n := range allow {
			missing = append(missing, n)
		}
		slices.Sort(missing)
		return nil, fmt.Errorf("farm: packages not in the %s fleet: %q", fleet.Kind, missing)
	}
	return out, nil
}

// runShard executes one work unit with its own collectors. A shard is fully
// isolated: own fleet behaviour state, the executor's hot device reset to
// the booted template (or a fresh clone of it), and a generator seed split
// from the study seed on the shard key, so generation is independent of
// execution order and worker count. An aging unit continues on the device
// the previous units aged, with the study seed itself.
func (e *Executor) runShard(key ShardKey) (*ShardResult, error) {
	cfg, met := e.p.cfg, e.p.met
	var (
		pkg    *manifest.Package
		dev    *wearos.OS
		source = BootAging
		err    error
	)
	if cfg.Aging != nil {
		pkg, dev, err = e.bootAging(key.Package)
	} else {
		var fleet *apps.Fleet
		if fleet, dev, source, err = e.boot(key.Package, met); err == nil {
			pkg = fleet.Package(key.Package)
		}
	}
	if err != nil {
		return nil, err
	}

	// The unit's device/fuzzer/binder/logcat/analysis metrics land in
	// unitReg. A shard gets a private registry, absorbed into cfg.Telemetry
	// when the shard completes, so the farm endpoint shows them aggregated
	// across shards; it is attached post-boot because cloned devices share
	// one immutable template Config. bootAging attached cfg.Telemetry itself
	// to the aging device, so aging units meter into it directly.
	unitReg := cfg.Telemetry
	if cfg.Telemetry != nil && cfg.Aging == nil {
		unitReg = telemetry.NewRegistry()
		dev.AttachTelemetry(unitReg)
	}

	// The unit's collectors share one sink, which decodes each line once.
	// It is detached when the unit ends: a reset drops it anyway, but the
	// aging device lives on into the next unit.
	col := analysis.NewCollector().UseTelemetry(unitReg)
	var tri *triage.Collector
	if cfg.triages() {
		tri = triage.NewCollector()
	}
	sink := triage.NewShardSink(col, tri)
	dev.Logcat().Subscribe(sink)
	defer dev.Logcat().Unsubscribe(sink)

	// The flight recorder exists for the failure windows triage attaches,
	// so it rides only when triage (or the farm registry, which counts its
	// events) wants it; a bare benchmark run stays recorder-free.
	var rec *telemetry.Recorder
	if tri != nil || cfg.Telemetry != nil {
		rec = telemetry.NewRecorder(0)
		dev.SetFlightRecorder(rec)
	}

	gen := cfg.Gen
	gen.Seed = cfg.Seed
	if cfg.Aging == nil {
		gen.Seed = rng.New(cfg.Seed).Split("farm-shard-" + key.String()).Uint64()
	}
	inj := &core.Injector{Dev: dev, Cfg: gen}

	// Fault shards (FIC F) attach the fault-injection engine after boot (the
	// engine publishes a binder probe endpoint, which snapshotting forbids on
	// templates). The fault seed is its own split of the study seed, so the
	// schedule is independent of execution order and worker count, and the
	// window budget is the shard's exact expected dispatch count.
	var eng *faultinject.Engine
	if key.Campaign == core.CampaignF {
		budget := key.Campaign.CountPerComponent(gen) * fuzzableComponents(pkg)
		fseed := rng.New(cfg.Seed).Split("fault-" + key.String()).Uint64()
		eng = faultinject.NewEngine(dev, faultinject.NewPlan(fseed, budget), key.Package)
	}
	if tri != nil {
		// attach pairs the record the delivery just finalized with its
		// reproducer intent and, when the record can become its bucket's
		// exemplar, a snapshot of the recorder's window.
		attach := func(in *intent.Intent) {
			tri.AttachIntent(in)
			if tri.WantsFlight() {
				tri.AttachFlight(rec.Trace(), rec.Window())
			}
		}
		inj.Observe = func(in *intent.Intent, res wearos.DeliveryResult) {
			if res == wearos.DeliveredCrash || res == wearos.DeliveredANR {
				// A failure record: its window holds the events that led
				// here, ending at this failure.
				attach(in)
			}
			if eng != nil && eng.TakeVerdict() {
				// A fault window just closed and its VERDICT line finalized a
				// fault record: the intent in flight is the workload
				// coordinate, and the window holds the fault begin/probe/
				// verdict event trail.
				attach(in)
			}
		}
	}
	run := inj.FuzzApp(key.Campaign, pkg)
	if eng != nil {
		// A window still open at campaign end is graded now, so its verdict
		// lands in this shard's collectors before results are snapshotted.
		eng.Finish()
	}

	sr := &ShardResult{
		Key:        key,
		Seed:       gen.Seed,
		Sent:       run.Sent,
		BootCount:  dev.BootCount(),
		Summary:    core.Summarize(run, dev.BootCount()),
		Report:     col.Report(),
		BootSource: source,
	}
	if tri != nil {
		// Only the records that can become an exemplar leave the shard,
		// weighted with the ones they stand for.
		sr.Crashes = triage.Fold(tri.Crashes())
	}
	if cfg.Telemetry != nil {
		met.recorderEvents.Add(rec.Recorded())
		if cfg.Aging == nil {
			cfg.Telemetry.Absorb(unitReg)
		}
	}
	return sr, nil
}

// triageCrashes buckets every crash across the run (canonical shard order)
// and greedily minimizes one reproducer per bucket on an oracle device.
// Runs after the merge, serially, so its output is as deterministic as the
// merge itself.
func (p *Plan) triageCrashes(results []*ShardResult) *triage.Result {
	var all []*triage.Crash
	for _, sr := range results {
		all = append(all, sr.Crashes...)
	}
	res := triage.Bucketize(all)
	// One executor serves every bucket's oracle device: triage runs
	// serially after the merge, so the buckets re-use a single hot device
	// the same way a worker's shards do.
	ex := p.NewExecutor()
	for i := range res.Buckets {
		ex.minimize(&res.Buckets[i])
	}
	return res
}

// minimize reduces the bucket's exemplar intent while the same stack
// bucket keeps reproducing on an oracle device. Oracle boots go through
// the executor with a zero-value farmMetrics so triage does not pollute the
// shard-level clone/persist telemetry.
func (e *Executor) minimize(b *triage.Bucket) {
	// Only exception-style failures minimize: a fault verdict is caused by
	// the injected fault window, not the intent in flight, so shrinking that
	// intent on a fault-free oracle device can never reproduce the bucket.
	if b.Kind != triage.KindCrash && b.Kind != triage.KindANR && b.Kind != "" {
		return
	}
	exemplar := b.Exemplar
	if exemplar == nil || exemplar.Intent == nil {
		return
	}
	ctype, ok := componentType(e.p.fleet, exemplar.Intent.Component)
	if !ok {
		return
	}
	_, dev, _, err := e.boot(exemplar.Intent.Component.Package, farmMetrics{})
	if err != nil {
		return
	}
	tri := triage.NewCollector()
	dev.Logcat().Subscribe(tri.Sink())
	// ANR buckets reproduce as ANRs, crash buckets as crashes.
	wantRes := wearos.DeliveredCrash
	if b.Kind == triage.KindANR {
		wantRes = wearos.DeliveredANR
	}
	seen := 0
	oracle := func(cand *intent.Intent) bool {
		in := cand.Clone()
		in.SenderUID = core.QGJUID
		var res wearos.DeliveryResult
		if ctype == manifest.Service {
			res = dev.StartService(in)
		} else {
			res = dev.StartActivity(in)
		}
		if res != wantRes {
			return false
		}
		crashes := tri.Crashes()
		if len(crashes) <= seen {
			return false
		}
		rec := crashes[len(crashes)-1]
		seen = len(crashes)
		return rec.Hash() == b.Hash
	}
	min, trials := triage.Minimize(exemplar.Intent, oracle)
	b.Trials = trials
	if min != nil {
		b.Reproduced = true
		b.Minimized = min
	}
}

// fuzzableComponents counts the package's Activities and Services — the
// component set FuzzApp iterates, and therefore the exact dispatch budget
// multiplier for a shard's intent volume and a fault shard's window
// schedule.
func fuzzableComponents(pkg *manifest.Package) int {
	n := 0
	for _, c := range pkg.Components {
		if c.Type == manifest.Activity || c.Type == manifest.Service {
			n++
		}
	}
	return n
}

// componentType looks up the component's manifest type in the fleet.
func componentType(fleet *apps.Fleet, cn intent.ComponentName) (manifest.ComponentType, bool) {
	pkg := fleet.Package(cn.Package)
	if pkg == nil {
		return 0, false
	}
	for _, c := range pkg.Components {
		if c.Name == cn {
			return c.Type, true
		}
	}
	return 0, false
}
