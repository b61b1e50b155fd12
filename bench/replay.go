package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/farm"
	"repro/internal/faultinject"
	"repro/internal/intent"
	"repro/internal/logcat"
	"repro/internal/manifest"
	"repro/internal/rng"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/internal/triage"
	"repro/internal/uifuzz"
	"repro/internal/wearos"
)

// The traced child runs in three phases, all timed from the benchmark's own
// code around public entry points:
//
//  1. Orchestration: the workload itself, with presentation-only hooks (a
//     farm.StatusBoard and Progress callback, or the HTTP middleware). Its
//     wall time against the untraced runs' gives the tracing overhead.
//  2. Shard internals: a serial, single-device replay of every shard of the
//     plan through the layer functions farm's runShard calls, with the same
//     seed split, collectors, flight recorder and fault engine, and a span
//     around each call.
//  3. Post-processing of the replayed results: record codec, journal,
//     both merge twins, bucketizing and the export. The replay's export
//     must hash equal to the orchestration's.
//
// UI-study has no orchestration layer; its traced run is the replay.

// counts are the per-layer work counters of a traced run.
type counts struct {
	intents, lines, resets, retires, verdicts int
	recordBytes, exportBytes                  int64
	appends                                   int
	buckets, trials, reproduced, minimized    int
	uiEvents                                  int
}

// tracedRep runs the traced child for j.
func tracedRep(j job, t0 time.Time) (*rep, error) {
	tr := newTracer()
	layers := make(map[string]float64)
	var r *rep
	var err error
	switch j.Workload {
	case wearStudy, shardChurn:
		r, err = tracedFarm(j, t0, tr, layers)
	case serviceWear:
		r, err = tracedService(j, t0, tr, layers)
	case uiStudy:
		r, err = tracedUI(j, t0, tr, layers)
	default:
		err = fmt.Errorf("unknown workload %q", j.Workload)
	}
	if err != nil {
		return nil, err
	}
	r.Layers = layers
	r.Spans = tr.snapshot()
	return r, nil
}

// tracedFarm is phase 1 for the in-process workloads, then the replay.
func tracedFarm(j job, t0 time.Time, tr *tracer, layers map[string]float64) (*rep, error) {
	cfgs, err := j.farmConfigs()
	if err != nil {
		return nil, err
	}
	expected, err := planIntents(cfgs)
	if err != nil {
		return nil, err
	}
	r := &rep{SetupS: time.Since(t0).Seconds(), Expected: expected}
	orch := tr.begin("orchestration", "", -1)
	w := openWindow()
	h := sha256.New()
	var shardMS []float64
	var busy, capacity float64
	for _, cfg := range cfgs {
		board := farm.NewStatusBoard()
		ends := make(map[farm.ShardKey]time.Time)
		cfg.Status = board
		// Progress calls are serialized by the farm and end before Run
		// returns, so the map needs no lock.
		cfg.Progress = func(_, _ int, key farm.ShardKey, _ int) { ends[key] = time.Now() }
		runStart := time.Now()
		res, err := farm.Run(cfg)
		runEnd := time.Now()
		if err != nil {
			return nil, err
		}
		run := tr.add(span{Name: "farm.Run", Parent: orch, Start: tr.at(runStart), End: tr.at(runEnd)})
		e := tr.begin("report.export", "", orch)
		export, err := service.ExportResult(res, cfg.Seed)
		tr.end(e)
		if err != nil {
			return nil, err
		}
		h.Write(export)
		r.Events += res.Sent
		r.Ops += res.Shards

		// Shard spans from the board: each ends at its Progress call and
		// lasted the board's execution time. The rest of Run after the last
		// shard is the post-barrier tail: merge and triage.
		var shards []span
		barrier := runStart
		for _, s := range board.Status().Shards {
			end := tr.at(ends[s.Key])
			shards = append(shards, span{Name: "farm.shard " + s.Source, Trace: s.Key.String(), Parent: run,
				Start: end - int64(s.Seconds*1e9), End: end})
			shardMS = append(shardMS, s.Seconds*1e3)
			busy += s.Seconds
			if ends[s.Key].After(barrier) {
				barrier = ends[s.Key]
			}
		}
		sort.Slice(shards, func(a, b int) bool { return shards[a].Start < shards[b].Start })
		lanes := &lanePacker{base: 1}
		for _, s := range shards {
			s.Lane = lanes.take(s.Start, s.End)
			tr.add(s)
		}
		tr.add(span{Name: "farm.tail", Parent: run, Start: tr.at(barrier), End: tr.at(runEnd)})
		capacity += workers * barrier.Sub(runStart).Seconds()
	}
	r.Hash = hex.EncodeToString(h.Sum(nil))
	w.close(r)
	tr.end(orch)
	layers["farm.shard_ms_p50"] = percentile(shardMS, 0.5)
	layers["farm.shard_ms_p90"] = percentile(shardMS, 0.9)
	layers["farm.exec_busy_s"] = busy
	layers["farm.worker_idle_frac"] = 1 - busy/capacity

	debug.FreeOSMemory()
	r.ReplayHash, err = replayPlans(tr, j.Workload, cfgs, j.WorkDir, layers)
	return r, err
}

// tracedService is phase 1 for service-wear: the unchanged RunWorker loops
// behind the recording middleware, then the replay.
func tracedService(j job, t0 time.Time, tr *tracer, layers map[string]float64) (*rep, error) {
	r, run, err := serviceRep(j, t0, nil)
	if err != nil {
		return nil, err
	}
	orch := tr.add(span{Name: "orchestration", Parent: -1, Start: tr.at(run.start), End: tr.at(run.exportAt)})
	serviceLayers(tr, orch, run, layers)

	cfg, err := j.Specs[0].FarmConfig()
	if err != nil {
		return nil, err
	}
	debug.FreeOSMemory()
	r.ReplayHash, err = replayPlans(tr, j.Workload, []farm.Config{cfg}, j.WorkDir, layers)
	return r, err
}

// serviceLayers derives the service and farm orchestration metrics from
// the middleware's records and the coordinator's shard board, and adds a
// span per request and per worker-side shard execution.
func serviceLayers(tr *tracer, orch int, run *serviceRun, layers map[string]float64) {
	var leaseMS, resultMS, workerMS []float64
	var upload int64
	failed := 0
	grants := make(map[string]time.Time)
	key := make(map[string]string)
	lastAccept := run.start
	reqLanes, execLanes := &lanePacker{base: 1}, &lanePacker{base: 10}
	for _, rc := range run.recs {
		if !rc.ok() {
			failed++
		}
		ms := float64(rc.End.Sub(rc.Start)) / 1e6
		switch rc.Route {
		case "lease":
			if rc.Status == 200 {
				leaseMS = append(leaseMS, ms)
				grants[rc.Lease], key[rc.Lease] = rc.End, rc.Key
			}
		case "result":
			upload += rc.ReqBytes
			if g, ok := grants[rc.Lease]; ok {
				// Grant answered → result request arrived: the worker's
				// execute and encode time plus the client's send.
				delete(grants, rc.Lease)
				workerMS = append(workerMS, float64(rc.Start.Sub(g))/1e6)
				start, end := tr.at(g), tr.at(rc.Start)
				tr.add(span{Name: "worker.execute", Trace: key[rc.Lease], Parent: orch,
					Lane: execLanes.take(start, end), Start: start, End: end})
			}
			if rc.ok() {
				resultMS = append(resultMS, ms)
				if rc.End.After(lastAccept) {
					lastAccept = rc.End
				}
			}
		}
		start, end := tr.at(rc.Start), tr.at(rc.End)
		tr.add(span{Name: fmt.Sprintf("http.%s %d", rc.Route, rc.Status), Trace: key[rc.Lease], Parent: orch,
			Lane: reqLanes.take(start, end), Start: start, End: end})
	}
	layers["service.lease_ms_p50"] = percentile(leaseMS, 0.5)
	layers["service.lease_ms_p90"] = percentile(leaseMS, 0.9)
	layers["service.result_ms_p50"] = percentile(resultMS, 0.5)
	layers["service.result_ms_p90"] = percentile(resultMS, 0.9)
	layers["service.worker_side_ms_p50"] = percentile(workerMS, 0.5)
	layers["service.worker_side_ms_p90"] = percentile(workerMS, 0.9)
	layers["service.upload_mb"] = float64(upload) / (1 << 20)
	layers["service.requests"] = float64(len(run.recs))
	layers["service.failed_requests"] = float64(failed)
	layers["service.throttled"] = float64(run.throttled)
	layers["service.leases_expired"] = float64(run.expired)
	layers["service.merge_wait_s"] = run.exportAt.Sub(lastAccept).Seconds()

	var shardMS []float64
	var busy float64
	for _, s := range run.board.Shards {
		shardMS = append(shardMS, s.Seconds*1e3)
		busy += s.Seconds
	}
	layers["farm.shard_ms_p50"] = percentile(shardMS, 0.5)
	layers["farm.shard_ms_p90"] = percentile(shardMS, 0.9)
	layers["farm.exec_busy_s"] = busy
	layers["farm.worker_idle_frac"] = 1 - busy/(workers*lastAccept.Sub(run.start).Seconds())
}

// tracedUI replays the UI study mode by mode with a span around emulator
// bring-up, device boot and the uifuzz run; it is also the orchestration.
func tracedUI(j job, t0 time.Time, tr *tracer, layers map[string]float64) (*rep, error) {
	opts := j.UI
	r := &rep{SetupS: time.Since(t0).Seconds(), Expected: 2 * uiEvents(opts), Ops: 2}
	root := tr.begin("replay", "", -1)
	w := openWindow()
	lines := 0
	var outs []uifuzz.Outcome
	for _, mode := range []uifuzz.Mode{uifuzz.SemiValid, uifuzz.Random} {
		trace := mode.String()
		m := tr.begin("ui.mode", trace, root)
		b := tr.begin("apps.emulator_boot", trace, m)
		fleet := apps.BuildEmulatorFleet(opts.Seed)
		d := tr.begin("wearos.boot", trace, b)
		dev := wearos.New(wearos.DefaultEmulatorConfig())
		tr.end(d)
		err := fleet.InstallInto(dev)
		tr.end(b)
		if err != nil {
			return nil, err
		}
		dev.Logcat().Subscribe(logcat.SinkFunc(func(logcat.Entry) { lines++ }))
		u := tr.begin("uifuzz.run", trace, m)
		out := uifuzz.New(dev).Run(mode, uifuzz.Config{Seed: opts.Seed, Events: opts.Events})
		tr.end(u)
		tr.end(m)
		outs = append(outs, out)
		r.Events += out.Injected
	}
	r.Hash = uiDigest(outs...)
	w.close(r)
	tr.end(root)
	r.ReplayHash = r.Hash

	spans := tr.snapshot()
	self := selfSeconds(spans, root)
	setLayers(layers, self, counts{lines: lines, uiEvents: r.Events})
	layers["trace.coverage"] = coverage(spans, root)
	return r, nil
}

// codecStages selects the record codec and journal steps of phase 3.
type codecStages struct{ encode, decode, journal bool }

// onPath is the codec and journal work the workload itself does per shard:
// service workers encode and the coordinator decodes and journals;
// checkpointed farm runs encode and journal; wear-study does neither.
func onPath(workload string) codecStages {
	switch workload {
	case serviceWear:
		return codecStages{encode: true, decode: true, journal: true}
	case shardChurn:
		return codecStages{encode: true, journal: true}
	}
	return codecStages{}
}

// replayPlans runs phases 2 and 3 over each config's plan and returns the
// hash of the replayed exports, in config order. The replay root holds
// only the workload's own path, so its coverage and stage ranking describe
// the workload; the codec steps the workload bypasses are timed afterwards
// under a separate probe root, for the per-layer metrics alone.
func replayPlans(tr *tracer, workload string, cfgs []farm.Config, workDir string, layers map[string]float64) (string, error) {
	type replayed struct {
		plan    *farm.Plan
		results []*farm.ShardResult
	}
	path := onPath(workload)
	root := tr.begin("replay", "", -1)
	h := sha256.New()
	var n counts
	var done []replayed
	for i, cfg := range cfgs {
		cfg.Status, cfg.Progress = nil, nil
		plan, results, err := n.replayPlan(tr, root, cfg)
		if err != nil {
			return "", err
		}
		journal := filepath.Join(workDir, fmt.Sprintf("replay-%d.ckpt", i))
		if err := n.codec(tr, root, plan, results, journal, path); err != nil {
			return "", err
		}
		export, err := n.mergeExport(tr, root, plan, cfg, results)
		if err != nil {
			return "", err
		}
		h.Write(export)
		done = append(done, replayed{plan, results})
	}
	tr.end(root)

	probe := tr.begin("probe", "", -1)
	for i, d := range done {
		journal := filepath.Join(workDir, fmt.Sprintf("probe-%d.ckpt", i))
		off := codecStages{encode: !path.encode, decode: !path.decode, journal: !path.journal}
		if err := n.codec(tr, probe, d.plan, d.results, journal, off); err != nil {
			return "", err
		}
	}
	tr.end(probe)

	spans := tr.snapshot()
	self := selfSeconds(spans, root)
	for name, s := range selfSeconds(spans, probe) {
		self[name] += s
	}
	setLayers(layers, self, n)
	layers["trace.coverage"] = coverage(spans, root)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// setLayers fills every per-layer metric from the self times by span name
// and the work counters. Layers a workload bypasses read 0.
func setLayers(layers map[string]float64, self map[string]float64, n counts) {
	per := func(total float64, k int) float64 {
		if k == 0 {
			return 0
		}
		return total * 1e9 / float64(k)
	}
	frac := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	set := map[string]float64{
		"core.generate_s":               self["core.generate"],
		"wearos.dispatch_s":             self["wearos.dispatch"],
		"wearos.dispatch_ns_per_intent": per(self["wearos.dispatch"], n.intents),
		"wearos.boot_s":                 self["wearos.boot"],
		"wearos.reset_s":                self["wearos.reset"] + self["wearos.clone"],
		"wearos.resets":                 float64(n.resets),
		"wearos.retires":                float64(n.retires),
		"logcat.lines":                  float64(n.lines),
		"analysis.classify_s":           self["analysis.classify"] + self["analysis.report"],
		"apps.instantiate_s":            self["apps.template"] + self["apps.instantiate"] + self["apps.install"],
		"apps.emulator_boot_s":          self["apps.emulator_boot"],
		"faultinject.s":                 self["faultinject"],
		"faultinject.verdicts":          float64(n.verdicts),
		"triage.collect_s":              self["triage.collect"],
		"triage.bucketize_s":            self["triage.bucketize"],
		"triage.minimize_s":             self["farm.merge+triage"] - self["farm.merge"] - self["triage.bucketize"],
		"triage.buckets":                float64(n.buckets),
		"triage.trials":                 float64(n.trials),
		"triage.reproduced_frac":        frac(n.reproduced, n.minimized),
		"farm.plan_s":                   self["farm.plan"],
		"farm.encode_s":                 self["farm.encode"],
		"farm.decode_s":                 self["farm.decode"],
		"farm.record_mb":                float64(n.recordBytes) / (1 << 20),
		"farm.journal_append_s":         self["farm.journal_append"],
		"farm.journal_appends":          float64(n.appends),
		"farm.merge_s":                  self["farm.merge"],
		"report.export_s":               self["report.export"],
		"report.export_mb":              float64(n.exportBytes) / (1 << 20),
		"uifuzz.run_s":                  self["uifuzz.run"],
		"uifuzz.events":                 float64(n.uiEvents),
		"uifuzz.ns_per_event":           per(self["uifuzz.run"], n.uiEvents),
	}
	for _, name := range layerNames {
		if _, ok := layers[name]; !ok {
			layers[name] = set[name]
		}
	}
}

// layerNames lists every per-layer metric a traced run reports, in
// BENCHMARK.json order.
var layerNames = []string{
	"core.generate_s",
	"wearos.dispatch_s", "wearos.dispatch_ns_per_intent", "wearos.boot_s",
	"wearos.reset_s", "wearos.resets", "wearos.retires",
	"logcat.lines", "analysis.classify_s",
	"apps.instantiate_s", "apps.emulator_boot_s",
	"faultinject.s", "faultinject.verdicts",
	"triage.collect_s", "triage.bucketize_s", "triage.minimize_s",
	"triage.buckets", "triage.trials", "triage.reproduced_frac",
	"farm.plan_s", "farm.shard_ms_p50", "farm.shard_ms_p90",
	"farm.exec_busy_s", "farm.worker_idle_frac",
	"farm.encode_s", "farm.decode_s", "farm.record_mb",
	"farm.journal_append_s", "farm.journal_appends", "farm.merge_s",
	"service.lease_ms_p50", "service.lease_ms_p90",
	"service.result_ms_p50", "service.result_ms_p90",
	"service.worker_side_ms_p50", "service.worker_side_ms_p90",
	"service.upload_mb", "service.requests", "service.failed_requests",
	"service.throttled", "service.leases_expired", "service.merge_wait_s",
	"report.export_s", "report.export_mb",
	"uifuzz.run_s", "uifuzz.events", "uifuzz.ns_per_event",
	"trace.coverage", "trace.overhead_frac",
}

// replayPlan plans cfg and replays every shard serially (phase 2).
func (n *counts) replayPlan(tr *tracer, root int, cfg farm.Config) (*farm.Plan, []*farm.ShardResult, error) {
	s := tr.begin("farm.plan", "", root)
	plan, err := farm.NewPlan(cfg)
	tr.end(s)
	if err != nil {
		return nil, nil, err
	}
	rp := &replayer{tr: tr, cfg: cfg, n: n, fleets: make(map[string]*apps.Fleet)}
	s = tr.begin("apps.template", "", root)
	rp.tmpl, err = apps.NewFleetTemplate(plan.FleetKind(), cfg.Seed)
	tr.end(s)
	if err != nil {
		return nil, nil, err
	}
	s = tr.begin("wearos.boot", "", root)
	rp.snap, err = wearos.New(deviceConfig(plan.FleetKind())).Snapshot()
	tr.end(s)
	if err != nil {
		return nil, nil, err
	}
	results := make([]*farm.ShardResult, len(plan.Shards()))
	for idx, key := range plan.Shards() {
		if results[idx], err = rp.shard(root, key); err != nil {
			return nil, nil, fmt.Errorf("replay shard %s: %w", key, err)
		}
	}
	return plan, results, nil
}

// deviceConfig is the shard device configuration farm boots: the fleet's
// device profile with device telemetry off.
func deviceConfig(kind apps.FleetKind) wearos.Config {
	cfg := wearos.DefaultWatchConfig()
	if kind == apps.PhoneFleet || kind == apps.LegacyPhoneFleet {
		cfg = wearos.DefaultPhoneConfig()
	}
	cfg.DisableTelemetry = true
	return cfg
}

// replayer executes shards one at a time on one persistent device, the way
// one farm worker does: reset the hot device in place, clone afresh when
// the reset fails, and rewind cached per-package fleets.
type replayer struct {
	tr     *tracer
	cfg    farm.Config
	n      *counts
	tmpl   *apps.FleetTemplate
	snap   *wearos.Snapshot
	dev    *wearos.OS
	fleets map[string]*apps.Fleet
}

func (rp *replayer) shard(parent int, key farm.ShardKey) (*farm.ShardResult, error) {
	tr, cfg, trace := rp.tr, rp.cfg, key.String()
	sp := tr.begin("shard", trace, parent)
	defer tr.end(sp)

	s := tr.begin("apps.instantiate", trace, sp)
	fleet := rp.fleets[key.Package]
	if fleet == nil || !rp.tmpl.Reset(fleet, key.Package) {
		f, err := rp.tmpl.Instantiate(key.Package)
		if err != nil {
			tr.end(s)
			return nil, err
		}
		fleet = f
		rp.fleets[key.Package] = f
	}
	tr.end(s)

	dev := rp.device(sp, trace)
	s = tr.begin("apps.install", trace, sp)
	pkg, err := fleet.InstallPackageInto(dev, key.Package)
	tr.end(s)
	if err != nil {
		rp.dev = nil
		return nil, err
	}

	// The collectors sit behind timing sinks; the sinks run inside
	// dispatch, so their totals become aggregate children of its span.
	var classify, collect time.Duration
	col := analysis.NewCollector()
	dev.Logcat().Subscribe(logcat.SinkFunc(func(e logcat.Entry) {
		start := time.Now()
		col.Consume(e)
		classify += time.Since(start)
		rp.n.lines++
	}))
	var tri *triage.Collector
	var rec *telemetry.Recorder
	if !cfg.DisableTriage {
		tri = triage.NewCollector()
		dev.Logcat().Subscribe(logcat.SinkFunc(func(e logcat.Entry) {
			start := time.Now()
			tri.Consume(e)
			collect += time.Since(start)
		}))
		rec = telemetry.NewRecorder(0)
		dev.SetFlightRecorder(rec)
	}

	gen := cfg.Gen
	gen.Seed = rng.New(cfg.Seed).Split("farm-shard-" + trace).Uint64()
	inj := &core.Injector{Dev: dev, Cfg: gen}
	comps := fuzzable(pkg)
	var eng *faultinject.Engine
	if key.Campaign == core.CampaignF {
		s = tr.begin("faultinject", trace, sp)
		budget := key.Campaign.CountPerComponent(gen) * len(comps)
		fseed := rng.New(cfg.Seed).Split("fault-" + trace).Uint64()
		eng = faultinject.NewEngine(dev, faultinject.NewPlan(fseed, budget), key.Package)
		tr.end(s)
	}
	if tri != nil {
		inj.Observe = func(in *intent.Intent, res wearos.DeliveryResult) {
			if res == wearos.DeliveredCrash || res == wearos.DeliveredANR {
				tri.AttachIntent(in)
				tri.AttachFlight(rec.Trace(), rec.Window())
			}
			if eng != nil && eng.TakeVerdict() {
				tri.AttachIntent(in)
				tri.AttachFlight(rec.Trace(), rec.Window())
			}
		}
	}

	// A generation-only pass with a no-op emit prices the generation work
	// dispatch also does.
	s = tr.begin("core.generate", trace, sp)
	genStart := time.Now()
	for _, c := range comps {
		key.Campaign.Generate(c.Name, gen, core.QGJUID, func(*intent.Intent) {})
	}
	generate := time.Since(genStart)
	tr.end(s)

	d := tr.begin("wearos.dispatch", trace, sp)
	run := inj.FuzzApp(key.Campaign, pkg)
	tr.end(d)
	tr.aggregate(d, trace, []string{"analysis.classify", "triage.collect", "core.generate.inline"},
		[]time.Duration{classify, collect, generate})
	rp.n.intents += run.Sent

	if eng != nil {
		s = tr.begin("faultinject", trace, sp)
		eng.Finish()
		tr.end(s)
		rp.n.verdicts += len(eng.Verdicts())
	}

	s = tr.begin("analysis.report", trace, sp)
	sr := &farm.ShardResult{
		Key:       key,
		Seed:      gen.Seed,
		Sent:      run.Sent,
		BootCount: dev.BootCount(),
		Summary:   core.Summarize(run, dev.BootCount()),
		Report:    col.Report(),
	}
	if tri != nil {
		sr.Crashes = tri.Crashes()
	}
	tr.end(s)
	return sr, nil
}

// device returns the hot device reset to the template, or a fresh clone
// when there is none or the reset is refused (the device retires).
func (rp *replayer) device(parent int, trace string) *wearos.OS {
	if rp.dev != nil {
		s := rp.tr.begin("wearos.reset", trace, parent)
		ok := rp.dev.ResetTo(rp.snap)
		rp.tr.end(s)
		if ok {
			rp.n.resets++
			return rp.dev
		}
		rp.n.retires++
	}
	s := rp.tr.begin("wearos.clone", trace, parent)
	rp.dev = rp.snap.Clone()
	rp.tr.end(s)
	return rp.dev
}

// fuzzable lists the package's Activities and Services, the components
// FuzzApp targets.
func fuzzable(pkg *manifest.Package) []*manifest.Component {
	var out []*manifest.Component
	for _, c := range pkg.Components {
		if c.Type == manifest.Activity || c.Type == manifest.Service {
			out = append(out, c)
		}
	}
	return out
}

// codec is the record half of phase 3: the selected steps of encoding,
// decoding and journaling (fsynced) every shard record, each in a span
// under parent. Records are encoded unspanned when only the later steps
// are selected.
func (n *counts) codec(tr *tracer, parent int, plan *farm.Plan, results []*farm.ShardResult, journalPath string, st codecStages) error {
	if st == (codecStages{}) {
		return nil
	}
	var jnl *farm.ShardJournal
	if st.journal {
		s := tr.begin("farm.journal_open", "", parent)
		j, _, _, err := plan.OpenJournal(journalPath, false)
		tr.end(s)
		if err != nil {
			return err
		}
		jnl = j
		defer os.Remove(journalPath)
		defer jnl.Close()
	}
	// timed runs f in a span named name when on is set.
	timed := func(on bool, name, trace string, f func() error) error {
		if !on {
			return f()
		}
		s := tr.begin(name, trace, parent)
		defer tr.end(s)
		return f()
	}
	for idx, sr := range results {
		trace := sr.Key.String()
		var record []byte
		err := timed(st.encode, "farm.encode", trace, func() (err error) {
			record, err = farm.EncodeShardRecord(idx, sr)
			return err
		})
		if err != nil {
			return err
		}
		if st.encode {
			n.recordBytes += int64(len(record))
		}
		if st.decode {
			if err := timed(true, "farm.decode", trace, func() error {
				_, _, err := farm.DecodeShardRecord(record)
				return err
			}); err != nil {
				return err
			}
		}
		if st.journal {
			if err := timed(true, "farm.journal_append", trace, func() error { return jnl.AppendEncoded(record) }); err != nil {
				return err
			}
			n.appends++
		}
	}
	if jnl != nil {
		return jnl.Close()
	}
	return nil
}

// mergeExport is the rest of phase 3: merge without triage (a
// DisableTriage twin plan), bucketize, the full merge with triage, and the
// canonical export.
func (n *counts) mergeExport(tr *tracer, root int, plan *farm.Plan, cfg farm.Config, results []*farm.ShardResult) ([]byte, error) {
	twinCfg := cfg
	twinCfg.DisableTriage = true
	s := tr.begin("farm.plan", "", root)
	twin, err := farm.NewPlan(twinCfg)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin("farm.merge", "", root)
	_, err = twin.Merge(results)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	var crashes []*triage.Crash
	for _, sr := range results {
		crashes = append(crashes, sr.Crashes...)
	}
	s = tr.begin("triage.bucketize", "", root)
	triage.Bucketize(crashes)
	tr.end(s)
	s = tr.begin("farm.merge+triage", "", root)
	res, err := plan.Merge(results)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	if res.Triage != nil {
		n.buckets += len(res.Triage.Buckets)
		for _, b := range res.Triage.Buckets {
			n.trials += b.Trials
			if b.Trials > 0 {
				n.minimized++
			}
			if b.Reproduced {
				n.reproduced++
			}
		}
	}
	s = tr.begin("report.export", "", root)
	export, err := service.ExportResult(res, cfg.Seed)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	n.exportBytes += int64(len(export))
	return export, nil
}

// percentile interpolates linearly between the closest ranks (q in [0,1]);
// it is 0 for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// lanePacker assigns each interval, in start order, the first timeline row
// free at its start, so overlapping spans land on separate rows.
type lanePacker struct {
	base int
	free []int64
}

func (l *lanePacker) take(start, end int64) int {
	for i, f := range l.free {
		if f <= start {
			l.free[i] = end
			return l.base + i
		}
	}
	l.free = append(l.free, end)
	return l.base + len(l.free) - 1
}
