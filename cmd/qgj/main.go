// Command qgj runs the QGJ-Master fuzzing workflow (the paper's Figure 1a)
// against the simulated watch carrying the paper's 46-app fleet. It is a
// front end over the farm engine (internal/farm), as cmd/report is.
//
// Usage:
//
//	qgj -list                             # list fuzzable wear components
//	qgj -app com.strava.wear -campaign B  # fuzz one app with one campaign
//	qgj -app com.strava.wear -all         # all four campaigns
//	qgj -app com.strava.wear -logcat      # dump the watch log afterwards
//	qgj -all -workers 8 -checkpoint run.ckpt   # farm the whole fleet
//	qgj -all -workers 8 -checkpoint run.ckpt -resume   # continue a killed run
//
// Without -workers, -checkpoint or -resume the campaigns run as the farm's
// aging plan: app by app, in campaign order, on one watch that is never
// reset, so aging carries across campaigns as in the paper; qgj prints the
// per-app summaries the watch reports. With any of them (and always for
// campaign F, whose fault engine needs a fresh device per unit) the run is
// sharded: (campaign, app) shards on a worker pool, each worker resetting
// one device in place between its shards, an fsynced checkpoint journal,
// and crash triage (unique signatures next to raw counts). Without -app
// every app of the fleet is fuzzed.
package main

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"slices"
	"syscall"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/farm"
	"repro/internal/manifest"
	"repro/internal/service"
	"repro/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "qgj:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("qgj", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "fleet and fuzzer seed")
	list := fs.Bool("list", false, "list fuzzable components on the wearable")
	app := fs.String("app", "", "target package on the wearable (default: every app of the fleet)")
	campaign := fs.String("campaign", "A", "fuzz intent campaign (A-D, or F for OS fault injection)")
	all := fs.Bool("all", false, "run all four campaigns against -app")
	quick := fs.Int("quick", 0, "scale factor k (>0 shrinks campaigns; 0 = full scale)")
	logDump := fs.Bool("logcat", false, "dump the wearable's logcat after fuzzing (aging mode only)")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /vars, /farm and /debug/pprof on this address (e.g. :9100 or :0)")
	linger := fs.Duration("linger", 0, "keep the process (and -metrics-addr endpoint) alive this long after the run")
	progressEvery := fs.Duration("progress", 2*time.Second, "interval between progress lines on stderr (0 disables)")
	workers := fs.Int("workers", 0, "sharded mode: run shards on this many parallel devices (0 = the paper's single aging watch)")
	checkpoint := fs.String("checkpoint", "", "sharded mode: journal completed shards to this file")
	resume := fs.Bool("resume", false, "sharded mode: resume from -checkpoint instead of starting over")
	worker := fs.String("worker", "", "worker mode: lease and execute shards from the farmd coordinator at this URL")
	workerName := fs.String("worker-name", "", "worker mode: name reported in leases (default qgj-<pid>)")
	exitIdle := fs.Bool("exit-idle", false, "worker mode: exit when the coordinator has no pending shards")
	workerPoll := fs.Duration("poll", 500*time.Millisecond, "worker mode: idle backoff between empty lease polls")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *worker != "" {
		return runWorker(*worker, *workerName, *exitIdle, *workerPoll)
	}

	if *resume && *checkpoint == "" {
		return fmt.Errorf("-resume requires -checkpoint")
	}
	if *list {
		listComponents(*seed)
		return nil
	}

	campaigns := core.AllCampaigns
	if !*all {
		c, err := core.ParseCampaign(*campaign)
		if err != nil {
			return err
		}
		campaigns = []core.Campaign{c}
	}
	gen := core.GeneratorConfig{}
	if *quick > 0 {
		gen = experiments.QuickGen(*quick)
	}
	cfg := farm.Config{
		Seed:      *seed,
		Fleet:     apps.WearFleet,
		Campaigns: campaigns,
		Gen:       gen,
		Sharding:  core.Sharding{Workers: *workers, Checkpoint: *checkpoint, Resume: *resume},
		Telemetry: telemetry.NewRegistry(),
		Status:    farm.NewStatusBoard(),
	}
	if *app != "" {
		cfg.Packages = []string{*app}
	}
	// The one place the flags choose the design: with no -workers,
	// -checkpoint or -resume the campaigns run app by app on the paper's
	// single aging watch (Figure 1a), otherwise as independent shards with
	// crash triage. Campaign F always shards: its fault engine needs a fresh
	// device per unit.
	if !cfg.Sharding.Enabled() && !slices.Contains(campaigns, core.CampaignF) {
		cfg.Aging = farm.PaperAging()
	}
	return runFarm(cfg, *metricsAddr, *linger, *progressEvery, *logDump)
}

// listComponents prints the wear fleet's fuzzable components (Activities
// and Services) sorted by package and class: step 1 of the workflow, the
// list QGJ-Master shows before a campaign.
func listComponents(seed uint64) {
	var comps []*manifest.Component
	for _, p := range apps.BuildWearFleet(seed).Packages {
		for _, c := range p.Components {
			if c.Type == manifest.Activity || c.Type == manifest.Service {
				comps = append(comps, c)
			}
		}
	}
	slices.SortFunc(comps, func(a, b *manifest.Component) int {
		return cmp.Or(cmp.Compare(a.Name.Package, b.Name.Package), cmp.Compare(a.Name.Class, b.Name.Class))
	})
	for _, c := range comps {
		exported := "exported"
		if !c.Exported {
			exported = "internal"
		}
		fmt.Printf("%-8s %-9s %s/%s\n", c.Type, exported, c.Name.Package, c.Name.Class)
	}
	fmt.Printf("%d components\n", len(comps))
}

// runWorker joins a farmd coordinator as a networked farm worker: lease a
// shard, verify the plan fingerprint, execute, upload, repeat. SIGINT or
// SIGTERM drains — the in-flight shard is finished and uploaded before the
// process exits; a worker killed outright instead stops heartbeating and
// the coordinator's reaper re-queues its shard.
func runWorker(coordinator, name string, exitIdle bool, poll time.Duration) error {
	if name == "" {
		name = fmt.Sprintf("qgj-%d", os.Getpid())
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	stats, err := service.RunWorker(ctx, service.WorkerOptions{
		Coordinator:  coordinator,
		Name:         name,
		Poll:         poll,
		ExitWhenIdle: exitIdle,
		Log:          log.New(os.Stderr, "qgj-worker: ", 0),
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "qgj-worker: done — %d shards executed (%d intents), %d leases lost\n",
		stats.Executed, stats.Intents, stats.Lost)
	return nil
}

// runFarm executes the campaigns on the farm engine. An aging plan prints
// one summary line per (campaign, app) unit, as the watch reports them; a
// shard plan prints the merged per-campaign counts plus the triage roll-up.
func runFarm(cfg farm.Config, metricsAddr string, linger, progressEvery time.Duration, logDump bool) error {
	if logDump && cfg.Aging == nil {
		fmt.Fprintln(os.Stderr, "qgj: -logcat is ignored in sharded mode (each shard boots its own device)")
	}
	if metricsAddr != "" {
		srv, err := telemetry.Serve(metricsAddr, cfg.Telemetry,
			telemetry.Route{Pattern: "/farm", Handler: farm.StatusHandler(cfg.Status)})
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "qgj: telemetry on http://%s/metrics\n", srv.Addr)
	}
	var prog *telemetry.Progress
	if progressEvery > 0 {
		prog = telemetry.NewProgress(os.Stderr, progressEvery)
		start := time.Now()
		cfg.Progress = func(done, total int, key farm.ShardKey, sentSoFar int) {
			rate := float64(sentSoFar) / time.Since(start).Seconds()
			prog.Tickf("qgj: shard %d/%d (%s) injected=%d (%.0f/s)", done, total, key, sentSoFar, rate)
		}
	}
	res, err := farm.Run(cfg)
	prog.Flush()
	if prog != nil && cfg.Aging == nil {
		snap := cfg.Telemetry.Snapshot()
		clone := snap.Histograms["farm_clone_seconds"]
		line := fmt.Sprintf("qgj: boot clones=%d", clone.Count)
		if clone.Count > 0 {
			line += fmt.Sprintf(" clone-avg=%s",
				time.Duration(clone.Sum/float64(clone.Count)*float64(time.Second)).Round(time.Microsecond))
		}
		if reuses := snap.Counters["farm_persist_reuses_total"]; reuses > 0 {
			line += fmt.Sprintf(" persist reuses=%d retires=%d fallbacks=%d",
				reuses, snap.Counters["farm_persist_retires_total"],
				snap.Counters["farm_persist_fallbacks_total"])
			if reset := snap.Histograms["farm_reset_seconds"]; reset.Count > 0 {
				line += fmt.Sprintf(" reset-avg=%s",
					time.Duration(reset.Sum/float64(reset.Count)*float64(time.Second)).Round(time.Microsecond))
			}
		}
		fmt.Fprintln(os.Stderr, line)
	}
	if err != nil {
		return err
	}
	if res.Sent == 0 {
		return fmt.Errorf("campaign recorded zero injections across %d shards", res.Shards)
	}
	if cfg.Aging != nil {
		for _, cr := range res.Campaigns {
			for _, sum := range cr.Summaries {
				fmt.Println(sum.String())
			}
		}
		if logDump {
			fmt.Print(res.Device.Logcat().Dump())
		}
	} else {
		printShards(res, cfg.Sharding.Checkpoint)
	}
	if linger > 0 {
		fmt.Fprintf(os.Stderr, "qgj: lingering %v for scrapes\n", linger)
		time.Sleep(linger)
	}
	return nil
}

// printShards prints a shard plan's merged per-campaign counts, its triage
// buckets and, for campaign F, the fault-resilience table.
func printShards(res *farm.Result, checkpoint string) {
	if res.Resumed > 0 {
		fmt.Fprintf(os.Stderr, "qgj: resumed %d/%d shards from %s\n", res.Resumed, res.Shards, checkpoint)
	}
	for _, cr := range res.Campaigns {
		fmt.Printf("campaign %s: sent=%d crashes=%d anrs=%d security=%d reboots=%d\n",
			cr.Campaign.Letter(), cr.Sent, cr.Report.CrashEvents, cr.Report.ANREvents,
			cr.Report.SecurityEvents, len(cr.Report.RebootTimes))
	}
	fmt.Printf("farm: %d shards, %d workers, %d intents\n", res.Shards, res.Workers, res.Sent)
	if res.Triage != nil {
		faults := ""
		if res.Triage.Faults > 0 {
			faults = fmt.Sprintf(", %d fault verdicts", res.Triage.Faults)
		}
		fmt.Printf("triage: %d unique failure signatures (%d raw crashes, %d ANRs%s)\n",
			res.Triage.Unique(), res.Triage.Crashes-res.Triage.ANRs-res.Triage.Faults,
			res.Triage.ANRs, faults)
		for _, b := range res.Triage.Buckets {
			min := ""
			if b.Minimized != nil {
				min = " minimized=" + b.Minimized.String()
			} else if b.Exemplar != nil && b.Exemplar.Intent != nil && !b.Reproduced {
				min = " (not reproduced on fresh device)"
			}
			flight := ""
			if b.Exemplar != nil && len(b.Exemplar.Flight) > 0 {
				flight = fmt.Sprintf(" flight=%d events (trace %s)", len(b.Exemplar.Flight), b.Exemplar.Trace)
			}
			fmt.Printf("  %016x ×%-4d %s at %s%s%s\n", b.Hash, b.Count, b.Class, b.Frame, min, flight)
		}
		if rows := experiments.FaultResilienceFromTriage(res.Triage); len(rows) > 0 {
			fmt.Println("fault resilience (graceful-degradation score per fault × app):")
			for _, r := range rows {
				fmt.Printf("  %-16s %-28s windows=%-3d score=%.2f (recovered=%d stall=%d silent=%d failed=%d)\n",
					r.Fault, r.App, r.Windows, r.Score,
					r.Degraded, r.Stalls, r.SilentDrops, r.FailedRecoveries)
			}
		}
	}
}
