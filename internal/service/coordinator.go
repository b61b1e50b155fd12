package service

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/farm"
	"repro/internal/telemetry"
	"repro/internal/triage"
)

// Sentinel errors the HTTP layer maps to status codes.
var (
	// ErrNoWork means every shard is done or leased — workers back off.
	ErrNoWork = errors.New("service: no pending shards")
	// ErrShuttingDown means the coordinator is draining; no new leases.
	ErrShuttingDown = errors.New("service: coordinator is shutting down")
	// ErrLeaseGone means the lease was reclaimed, released, completed, or
	// never existed — the worker's claim on the shard is void.
	ErrLeaseGone = errors.New("service: lease is gone")
	// ErrBadRecord means an upload contradicted its lease (fingerprint or
	// shard-key mismatch) and was rejected.
	ErrBadRecord = errors.New("service: rejected shard record")
	// ErrNotFound means the campaign ID is unknown.
	ErrNotFound = errors.New("service: unknown campaign")
	// ErrNotComplete means the export was requested before the merge.
	ErrNotComplete = errors.New("service: campaign is not complete")
	// ErrThrottled means the coordinator's pending-upload queue is full —
	// uploads are arriving faster than the journal can fsync them. The
	// HTTP layer answers 429 with a Retry-After hint; the client's retry
	// loop honors it transparently.
	ErrThrottled = errors.New("service: upload queue is full, retry later")
)

// Options configures a Coordinator.
type Options struct {
	// DataDir is required: every campaign's spec sidecar and fsynced JSONL
	// shard journal live there, and a coordinator started on it again
	// re-queues exactly the unfinished work.
	DataDir string
	// LeaseTTL is how long a granted lease lives between heartbeats before
	// the reaper returns its shard to the queue. Default 30s.
	LeaseTTL time.Duration
	// Telemetry receives the service-level metrics; nil creates a private
	// registry (reachable via Coordinator.Telemetry).
	Telemetry *telemetry.Registry
	// Clock overrides time.Now for lease-expiry tests.
	Clock func() time.Time
}

// maxPendingUploads bounds how many shard uploads may sit in the journal's
// fsync pipeline at once. When workers outrun the fsync budget, further
// uploads answer ErrThrottled (HTTP 429 + Retry-After) instead of queueing
// unboundedly.
const maxPendingUploads = 64

// Campaign states reported by CampaignInfo.State.
const (
	CampaignRunning  = "running"
	CampaignMerging  = "merging"
	CampaignComplete = "complete"
	CampaignFailed   = "failed"
)

// CampaignInfo is the public view of one hosted campaign.
type CampaignInfo struct {
	ID          string       `json:"id"`
	Spec        CampaignSpec `json:"spec"`
	Fingerprint string       `json:"fingerprint"`
	State       string       `json:"state"`
	Shards      int          `json:"shards"`
	Pending     int          `json:"pending"`
	Leased      int          `json:"leased"`
	Done        int          `json:"done"`
	Resumed     int          `json:"resumed,omitempty"`
	Sent        int          `json:"intentsSent"`
	Created     time.Time    `json:"created"`
	Error       string       `json:"error,omitempty"`
}

// LeaseGrant is the coordinator's answer to a lease request: one shard of
// one campaign, plus everything the worker needs to verify and execute it.
type LeaseGrant struct {
	LeaseID    string        `json:"leaseId"`
	CampaignID string        `json:"campaignId"`
	Shard      int           `json:"shard"`
	Key        farm.ShardKey `json:"key"`
	// Fingerprint is the plan fingerprint (%016x). The worker re-plans the
	// spec locally and must refuse the lease when its own fingerprint
	// differs — the shard would belong to a different run.
	Fingerprint string       `json:"fingerprint"`
	Spec        CampaignSpec `json:"spec"`
	// TTLSeconds is the heartbeat deadline: miss it and the shard is
	// re-queued for someone else.
	TTLSeconds float64 `json:"ttlSeconds"`
}

type lease struct {
	id      string
	camp    *campaign
	shard   int
	worker  string
	granted time.Time
	expires time.Time
}

// campaign is one hosted run: plan, shard table, journal, live streams.
// The board is the shard table (state and result per shard); the
// coordinator adds only what leases need.
type campaign struct {
	id      string
	spec    CampaignSpec
	plan    *farm.Plan
	created time.Time
	board   *farm.StatusBoard
	// reclaimed marks shards whose lease expired at least once; granting
	// one again counts as a steal.
	reclaimed []bool
	journal   *farm.ShardJournal
	reg       *telemetry.Registry
	stream    *triage.Stream

	export   []byte
	mergeErr error
	// finished closes when the merge (or its failure) lands.
	finished chan struct{}

	// per-campaign metric handles
	intentsC *telemetry.Counter
	shardsC  *telemetry.Counter
	crashesC *telemetry.Counter
	grantsC  *telemetry.Counter
}

// svcMetrics caches the coordinator's service-level metric handles.
type svcMetrics struct {
	campaigns     *telemetry.Counter
	leasesGranted *telemetry.Counter
	leasesExpired *telemetry.Counter
	leasesStolen  *telemetry.Counter
	leasesFreed   *telemetry.Counter
	heartbeats    *telemetry.Counter
	results       *telemetry.Counter
	resultsDup    *telemetry.Counter
	resultsRej    *telemetry.Counter
	throttled     *telemetry.Counter
}

func newSvcMetrics(reg *telemetry.Registry) svcMetrics {
	return svcMetrics{
		campaigns:     reg.Counter("service_campaigns_submitted_total"),
		leasesGranted: reg.Counter("service_leases_granted_total"),
		leasesExpired: reg.Counter("service_leases_expired_total"),
		leasesStolen:  reg.Counter("service_leases_stolen_total"),
		leasesFreed:   reg.Counter("service_leases_released_total"),
		heartbeats:    reg.Counter("service_heartbeats_total"),
		results:       reg.Counter("service_results_total"),
		resultsDup:    reg.Counter("service_results_duplicate_total"),
		resultsRej:    reg.Counter("service_results_rejected_total"),
		throttled:     reg.Counter("service_uploads_throttled_total"),
	}
}

// Coordinator hosts campaigns and serves the lease/heartbeat/result
// protocol. All methods are safe for concurrent use.
type Coordinator struct {
	opts Options
	reg  *telemetry.Registry
	met  svcMetrics
	now  func() time.Time
	// maxBody bounds every POST body the HTTP handlers decode. It is
	// maxBodyBytes; tests lower it to send an over-limit body cheaply.
	maxBody int64
	// maxPending is maxPendingUploads; tests lower it to saturate the
	// upload gate cheaply.
	maxPending int

	mu        sync.Mutex
	campaigns map[string]*campaign
	order     []string
	leases    map[string]*lease
	workers   map[string]time.Time
	seq       int
	leaseSeq  uint64
	shutdown  bool
	// pendingUploads counts Complete calls currently in the decode +
	// journal-fsync pipeline; the backpressure bound caps it.
	pendingUploads int

	reaperStop chan struct{}
	// uploads tracks the Complete calls past the shutdown check, so
	// Shutdown closes no journal under an append.
	uploads sync.WaitGroup
	merges  sync.WaitGroup
}

// NewCoordinator builds a coordinator, restoring the campaigns found in
// Options.DataDir (their journals replay exactly like -resume: completed
// shards are restored, the rest re-queued).
func NewCoordinator(opts Options) (*Coordinator, error) {
	if opts.DataDir == "" {
		return nil, errors.New("service: a data dir is required")
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 30 * time.Second
	}
	reg := opts.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	c := &Coordinator{
		opts:       opts,
		reg:        reg,
		met:        newSvcMetrics(reg),
		now:        opts.Clock,
		maxBody:    maxBodyBytes,
		maxPending: maxPendingUploads,
		campaigns:  make(map[string]*campaign),
		leases:     make(map[string]*lease),
		workers:    make(map[string]time.Time),
		reaperStop: make(chan struct{}),
	}
	if c.now == nil {
		c.now = time.Now
	}
	// Derived queue gauges refresh at scrape time instead of riding the
	// lease hot path.
	depthG := reg.Gauge("service_queue_depth")
	leasedG := reg.Gauge("service_shards_leased")
	activeG := reg.Gauge("service_campaigns_active")
	completeG := reg.Gauge("service_campaigns_complete")
	workersG := reg.Gauge("service_workers_live")
	reg.OnCollect(func() {
		pending, leased, active, complete, live := c.poolStats()
		depthG.Set(float64(pending))
		leasedG.Set(float64(leased))
		activeG.Set(float64(active))
		completeG.Set(float64(complete))
		workersG.Set(float64(live))
	})
	if err := os.MkdirAll(opts.DataDir, 0o755); err != nil {
		return nil, fmt.Errorf("service: data dir: %w", err)
	}
	if err := c.restore(); err != nil {
		return nil, err
	}
	go c.reaper()
	return c, nil
}

// Telemetry returns the service-level metric registry.
func (c *Coordinator) Telemetry() *telemetry.Registry { return c.reg }

// LeaseTTL returns the configured lease lifetime.
func (c *Coordinator) LeaseTTL() time.Duration { return c.opts.LeaseTTL }

// poolStats aggregates queue depth and liveness for the derived gauges.
func (c *Coordinator) poolStats() (pending, leased, active, complete, live int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, camp := range c.campaigns {
		t := camp.board.Tally()
		pending += t.Pending
		leased += t.Running
		if camp.settled() {
			complete++
		} else {
			active++
		}
	}
	horizon := c.now().Add(-3 * c.opts.LeaseTTL)
	for _, seen := range c.workers {
		if seen.After(horizon) {
			live++
		}
	}
	return
}

// specFile and journalFile name a campaign's durable artifacts.
func (c *Coordinator) specFile(id string) string {
	return filepath.Join(c.opts.DataDir, id+".spec.json")
}
func (c *Coordinator) journalFile(id string) string {
	return filepath.Join(c.opts.DataDir, id+".ckpt")
}

// specSidecar is the durable submission record next to the journal.
type specSidecar struct {
	ID      string       `json:"id"`
	Spec    CampaignSpec `json:"spec"`
	Created time.Time    `json:"created"`
}

// restore re-hosts every campaign whose sidecar is in DataDir, in
// submission order. A sidecar must name the campaign its file is named
// after, so no campaign is hosted twice or under an empty ID.
func (c *Coordinator) restore() error {
	entries, err := os.ReadDir(c.opts.DataDir)
	if err != nil {
		return fmt.Errorf("service: scan data dir: %w", err)
	}
	var ids []string
	for _, e := range entries {
		if id, ok := strings.CutSuffix(e.Name(), ".spec.json"); ok {
			ids = append(ids, id)
		}
	}
	slices.SortFunc(ids, func(a, b string) int {
		return cmp.Or(cmp.Compare(parseSeq(a), parseSeq(b)), strings.Compare(a, b))
	})
	for _, id := range ids {
		if err := c.restoreOne(id); err != nil {
			return fmt.Errorf("service: restore %s.spec.json: %w", id, err)
		}
		if n := parseSeq(id); n >= c.seq {
			c.seq = n
		}
	}
	return nil
}

// restoreOne re-hosts the campaign whose sidecar is id.spec.json.
func (c *Coordinator) restoreOne(id string) error {
	data, err := os.ReadFile(c.specFile(id))
	if err != nil {
		return err
	}
	var side specSidecar
	if err := json.Unmarshal(data, &side); err != nil {
		return err
	}
	if side.ID == "" || side.ID != id {
		return fmt.Errorf("sidecar names campaign %q, not its file's %q", side.ID, id)
	}
	plan, err := side.Spec.Plan()
	if err != nil {
		return err
	}
	_, err = c.host(id, side.Spec, plan, side.Created, true)
	return err
}

// parseSeq extracts the numeric sequence from a campaign ID ("c7-..." -> 7).
func parseSeq(id string) int {
	rest, ok := strings.CutPrefix(id, "c")
	if !ok {
		return 0
	}
	numStr, _, ok := strings.Cut(rest, "-")
	if !ok {
		return 0
	}
	n := 0
	for _, r := range numStr {
		if r < '0' || r > '9' {
			return 0
		}
		n = n*10 + int(r-'0')
	}
	return n
}

// Submit plans and hosts a new campaign, returning its info. The spec
// sidecar and journal are created before Submit returns, so an accepted
// campaign survives any later crash.
func (c *Coordinator) Submit(spec CampaignSpec) (CampaignInfo, error) {
	c.mu.Lock()
	if c.shutdown {
		c.mu.Unlock()
		return CampaignInfo{}, ErrShuttingDown
	}
	c.seq++
	seq := c.seq
	c.mu.Unlock()

	// Plan outside the lock — building the boot templates is the slow part.
	plan, err := spec.Plan()
	if err != nil {
		return CampaignInfo{}, err
	}
	id := fmt.Sprintf("c%d-%08x", seq, uint32(plan.Fingerprint()))
	created := c.now().UTC()
	side, err := json.MarshalIndent(specSidecar{ID: id, Spec: spec, Created: created}, "", "  ")
	if err != nil {
		return CampaignInfo{}, err
	}
	if err := os.WriteFile(c.specFile(id), append(side, '\n'), 0o644); err != nil {
		return CampaignInfo{}, fmt.Errorf("service: write sidecar: %w", err)
	}
	camp, err := c.host(id, spec, plan, created, false)
	if err != nil {
		return CampaignInfo{}, err
	}
	c.met.campaigns.Inc()
	return c.info(camp), nil
}

// host builds the campaign for spec's plan and opens its durable journal
// (resuming when restore is set).
func (c *Coordinator) host(id string, spec CampaignSpec, plan *farm.Plan, created time.Time, restore bool) (*campaign, error) {
	n := len(plan.Shards())
	camp := &campaign{
		id:        id,
		spec:      spec,
		plan:      plan,
		created:   created,
		board:     farm.NewStatusBoard(),
		reclaimed: make([]bool, n),
		reg:       telemetry.NewRegistry(),
		stream:    triage.NewStream(),
		finished:  make(chan struct{}),
	}
	camp.board.Track(plan, 0)
	camp.intentsC = camp.reg.Counter("campaign_intents_total")
	camp.shardsC = camp.reg.Counter("campaign_shards_done_total")
	camp.crashesC = camp.reg.Counter("campaign_crashes_total")
	camp.grantsC = camp.reg.Counter("campaign_leases_granted_total")
	camp.reg.Gauge("campaign_shards_total").Set(float64(n))

	jnl, restored, _, err := plan.OpenJournal(c.journalFile(id), restore)
	if err != nil {
		return nil, err
	}
	camp.journal = jnl
	for idx, sr := range restored {
		if sr != nil {
			camp.board.Resume(idx, sr)
			camp.count(sr)
		}
	}

	c.mu.Lock()
	c.campaigns[id] = camp
	c.order = append(c.order, id)
	c.mu.Unlock()
	if t := camp.board.Tally(); t.Finished() == t.Total {
		c.merges.Add(1)
		go c.finalize(camp)
	}
	return camp, nil
}

// count meters one finished shard into the campaign's counters and its
// triage stream. A folded crash list counts every record it stands for.
func (camp *campaign) count(sr *farm.ShardResult) {
	camp.intentsC.Add(uint64(sr.Sent))
	camp.shardsC.Inc()
	camp.crashesC.Add(uint64(triage.Count(sr.Crashes)))
	camp.stream.Add(sr.Crashes)
}

// settled reports whether the campaign's merge has landed, successfully
// or not. Callers hold c.mu.
func (camp *campaign) settled() bool { return camp.export != nil || camp.mergeErr != nil }

// info renders a campaign's public view; callers must not hold c.mu.
func (c *Coordinator) info(camp *campaign) CampaignInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.infoLocked(camp)
}

func (c *Coordinator) infoLocked(camp *campaign) CampaignInfo {
	t := camp.board.Tally()
	inf := CampaignInfo{
		ID:          camp.id,
		Spec:        camp.spec,
		Fingerprint: fmt.Sprintf("%016x", camp.plan.Fingerprint()),
		Shards:      t.Total,
		Pending:     t.Pending,
		Leased:      t.Running,
		Done:        t.Finished(),
		Resumed:     t.Resumed,
		Sent:        t.IntentsTotal,
		Created:     camp.created,
	}
	switch {
	case camp.mergeErr != nil:
		inf.State = CampaignFailed
		inf.Error = camp.mergeErr.Error()
	case camp.export != nil:
		inf.State = CampaignComplete
	case t.Finished() == t.Total:
		inf.State = CampaignMerging
	default:
		inf.State = CampaignRunning
	}
	return inf
}

// Campaigns lists hosted campaigns in submission order.
func (c *Coordinator) Campaigns() []CampaignInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]CampaignInfo, 0, len(c.order))
	for _, id := range c.order {
		out = append(out, c.infoLocked(c.campaigns[id]))
	}
	return out
}

// lookup returns the hosted campaign id names, or ErrNotFound.
func (c *Coordinator) lookup(id string) (*campaign, error) {
	c.mu.Lock()
	camp := c.campaigns[id]
	c.mu.Unlock()
	if camp == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return camp, nil
}

// Campaign returns one campaign's info.
func (c *Coordinator) Campaign(id string) (CampaignInfo, error) {
	camp, err := c.lookup(id)
	if err != nil {
		return CampaignInfo{}, err
	}
	return c.info(camp), nil
}

// Status returns one campaign's live shard table.
func (c *Coordinator) Status(id string) (farm.StatusSnapshot, error) {
	camp, err := c.lookup(id)
	if err != nil {
		return farm.StatusSnapshot{}, err
	}
	return camp.board.Status(), nil
}

// CampaignTelemetry returns one campaign's private metric registry.
func (c *Coordinator) CampaignTelemetry(id string) (*telemetry.Registry, error) {
	camp, err := c.lookup(id)
	if err != nil {
		return nil, err
	}
	return camp.reg, nil
}

// Lease grants the next pending shard: campaigns in submission order,
// shards within a campaign from its board's Next (the call farm.Run's pool
// makes, in the plan's LPT order), reclaiming any expired leases first.
func (c *Coordinator) Lease(worker string) (LeaseGrant, error) {
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.shutdown {
		return LeaseGrant{}, ErrShuttingDown
	}
	c.workers[worker] = now
	c.reapLocked(now)
	for _, id := range c.order {
		camp := c.campaigns[id]
		best, ok := camp.board.Next(now.Sub(camp.created))
		if !ok {
			continue
		}
		c.leaseSeq++
		l := &lease{
			id:      fmt.Sprintf("l%d-%s-%d", c.leaseSeq, camp.id, best),
			camp:    camp,
			shard:   best,
			worker:  worker,
			granted: now,
			expires: now.Add(c.opts.LeaseTTL),
		}
		c.leases[l.id] = l
		c.met.leasesGranted.Inc()
		camp.grantsC.Inc()
		if camp.reclaimed[best] {
			c.met.leasesStolen.Inc()
		}
		return LeaseGrant{
			LeaseID:     l.id,
			CampaignID:  camp.id,
			Shard:       best,
			Key:         camp.plan.Shards()[best],
			Fingerprint: fmt.Sprintf("%016x", camp.plan.Fingerprint()),
			Spec:        camp.spec,
			TTLSeconds:  c.opts.LeaseTTL.Seconds(),
		}, nil
	}
	return LeaseGrant{}, ErrNoWork
}

// Heartbeat extends a live lease to now+TTL. A reclaimed, released, or
// completed lease answers ErrLeaseGone — the worker must abandon the shard
// (its result would be rejected anyway).
func (c *Coordinator) Heartbeat(leaseID string) (time.Time, error) {
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked(now)
	l := c.leases[leaseID]
	if l == nil {
		return time.Time{}, ErrLeaseGone
	}
	l.expires = now.Add(c.opts.LeaseTTL)
	c.workers[l.worker] = now
	c.met.heartbeats.Inc()
	return l.expires, nil
}

// Release returns a lease's shard to the queue — the graceful-shutdown
// path for a worker that cannot finish its shard.
func (c *Coordinator) Release(leaseID string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	l := c.leases[leaseID]
	if l == nil {
		return ErrLeaseGone
	}
	delete(c.leases, leaseID)
	l.camp.board.Requeue(l.shard)
	c.met.leasesFreed.Inc()
	return nil
}

// Complete accepts a shard result upload: the journal wire form plus the
// uploader's plan fingerprint. The record must match the lease (fingerprint,
// shard index, shard key). An accepted record is fsynced to the campaign
// journal, and only then is the shard marked done; a failed append
// re-queues the shard. Completing the last shard triggers the canonical
// merge in the background. A draining coordinator answers ErrShuttingDown
// and records nothing, so a restart re-queues the shard.
func (c *Coordinator) Complete(leaseID string, fingerprint string, record []byte) error {
	now := c.now()
	// Drain and backpressure gates, before any lease-state mutation: the
	// upload is refused outright and the lease is untouched, so the worker
	// can retry the identical request after Retry-After without any
	// protocol consequence.
	c.mu.Lock()
	if c.shutdown {
		c.mu.Unlock()
		return ErrShuttingDown
	}
	if c.pendingUploads >= c.maxPending {
		c.met.throttled.Inc()
		c.mu.Unlock()
		return ErrThrottled
	}
	c.pendingUploads++
	c.uploads.Add(1)
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.pendingUploads--
		c.mu.Unlock()
		c.uploads.Done()
	}()

	idx, sr, err := farm.DecodeShardRecord(record)
	if err != nil {
		// An undecodable upload voids its lease like a mismatched one: the
		// shard re-queues now instead of when the TTL reaps the lease.
		c.mu.Lock()
		c.reapLocked(now)
		if l := c.leases[leaseID]; l != nil {
			c.workers[l.worker] = now
			delete(c.leases, leaseID)
			l.camp.board.Requeue(l.shard)
		}
		c.met.resultsRej.Inc()
		c.mu.Unlock()
		return fmt.Errorf("%w: %v", ErrBadRecord, err)
	}

	c.mu.Lock()
	c.reapLocked(now)
	l := c.leases[leaseID]
	if l == nil {
		c.met.resultsDup.Inc()
		c.mu.Unlock()
		return ErrLeaseGone
	}
	camp := l.camp
	c.workers[l.worker] = now
	delete(c.leases, leaseID)
	wantFP := fmt.Sprintf("%016x", camp.plan.Fingerprint())
	if fingerprint != wantFP || idx != l.shard || sr.Key != camp.plan.Shards()[idx] {
		// The upload contradicts the lease: refuse it and re-queue the
		// shard — a confused worker must not poison the merge.
		camp.board.Requeue(l.shard)
		c.met.resultsRej.Inc()
		c.mu.Unlock()
		return fmt.Errorf("%w: fingerprint %s / shard %d does not match lease (want %s / %d)",
			ErrBadRecord, fingerprint, idx, wantFP, l.shard)
	}
	c.mu.Unlock()

	// Durability before acknowledgment: the fsynced journal line is what
	// makes a restart not lose this shard. Until it lands the shard stays
	// running without a lease, so neither the reaper nor Lease touches it.
	if err := camp.journal.AppendEncoded(record); err != nil {
		camp.board.Requeue(idx)
		return err
	}
	last := camp.board.Done(idx, sr, now.Sub(l.granted), l.worker)
	camp.count(sr)
	c.met.results.Inc()
	if last {
		c.merges.Add(1)
		go c.finalize(camp)
	}
	return nil
}

// finalize merges a finished campaign in canonical plan order, runs triage,
// and renders the canonical export. Runs off the request path; Export
// blocks on camp.finished. The board hands its results to the merge and
// keeps only its rows.
func (c *Coordinator) finalize(camp *campaign) {
	defer c.merges.Done()
	res, err := camp.plan.Merge(camp.board.TakeResults())
	var export []byte
	if err == nil {
		export, err = ExportResult(res, camp.spec.Seed)
	}
	c.mu.Lock()
	camp.export, camp.mergeErr = export, err
	c.mu.Unlock()
	camp.stream.Close()
	close(camp.finished)
}

// Export returns the canonical merged export of a complete campaign. It
// answers ErrNotComplete while shards are outstanding and blocks only for
// an in-flight merge.
func (c *Coordinator) Export(id string) ([]byte, error) {
	camp, err := c.lookup(id)
	if err != nil {
		return nil, err
	}
	if t := camp.board.Tally(); t.Finished() < t.Total {
		return nil, fmt.Errorf("%w: %s", ErrNotComplete, id)
	}
	<-camp.finished
	c.mu.Lock()
	defer c.mu.Unlock()
	return camp.export, camp.mergeErr
}

// TriageStream returns a campaign's incremental bucket stream.
func (c *Coordinator) TriageStream(id string) (*triage.Stream, error) {
	camp, err := c.lookup(id)
	if err != nil {
		return nil, err
	}
	return camp.stream, nil
}

// reapLocked returns every expired lease's shard to the queue. Callers
// hold c.mu.
func (c *Coordinator) reapLocked(now time.Time) {
	for id, l := range c.leases {
		if !now.After(l.expires) {
			continue
		}
		delete(c.leases, id)
		l.camp.reclaimed[l.shard] = true
		l.camp.board.Requeue(l.shard)
		c.met.leasesExpired.Inc()
	}
}

// reaper periodically reclaims expired leases so shards held by dead
// workers re-queue even while no other worker is polling.
func (c *Coordinator) reaper() {
	interval := c.opts.LeaseTTL / 4
	if interval < 50*time.Millisecond {
		interval = 50 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.reaperStop:
			return
		case <-t.C:
			c.mu.Lock()
			c.reapLocked(c.now())
			c.mu.Unlock()
		}
	}
}

// Shutdown drains the coordinator: new leases, submissions and uploads are
// refused, in-flight uploads and merges are awaited, and every campaign
// journal is flushed and closed. Outstanding leases are left to the
// journal's durability story — their shards were never recorded done, so a
// restart re-queues them, which is exactly "released" from the workers'
// point of view.
func (c *Coordinator) Shutdown() error {
	c.mu.Lock()
	if c.shutdown {
		c.mu.Unlock()
		return nil
	}
	c.shutdown = true
	c.mu.Unlock()
	close(c.reaperStop)
	c.uploads.Wait()
	c.merges.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	var firstErr error
	for _, camp := range c.campaigns {
		if err := camp.journal.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
