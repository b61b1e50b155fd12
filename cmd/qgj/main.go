// Command qgj runs the QGJ-Master fuzzing workflow: a simulated phone
// paired with a simulated watch carrying the paper's 46-app fleet, the QGJ
// apps installed on both, and campaigns orchestrated over the Wear
// MessageAPI — Figure 1a end to end.
//
// Usage:
//
//	qgj -list                             # list fuzzable wear components
//	qgj -app com.strava.wear -campaign B  # fuzz one app with one campaign
//	qgj -app com.strava.wear -all         # all four campaigns
//	qgj -logcat                           # dump the watch log afterwards
//	qgj -all -workers 8 -checkpoint run.ckpt   # farm the whole fleet
//	qgj -all -workers 8 -checkpoint run.ckpt -resume   # continue a killed run
//
// With -workers, -checkpoint, or -resume the run goes through the farm
// engine (internal/farm): (campaign, app) shards on a worker pool, each
// worker resetting one device in place between its shards, an fsynced
// checkpoint journal, and crash triage (unique signatures next to raw
// counts). Without them qgj runs the
// paper's Figure 1a workflow on a single paired phone+watch.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/analysis"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/farm"
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
	app := fs.String("app", "", "target package on the wearable")
	campaign := fs.String("campaign", "A", "fuzz intent campaign (A-D, or F for OS fault injection)")
	all := fs.Bool("all", false, "run all four campaigns against -app")
	quick := fs.Int("quick", 0, "scale factor k (>0 shrinks campaigns; 0 = full scale)")
	logDump := fs.Bool("logcat", false, "dump the wearable's logcat after fuzzing")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /vars and /debug/pprof on this address (e.g. :9100 or :0)")
	linger := fs.Duration("linger", 0, "keep the process (and -metrics-addr endpoint) alive this long after the run")
	progressEvery := fs.Duration("progress", 2*time.Second, "interval between progress lines on stderr (0 disables)")
	workers := fs.Int("workers", 0, "farm mode: run shards on this many parallel devices (>1 enables the farm)")
	checkpoint := fs.String("checkpoint", "", "farm mode: journal completed shards to this file")
	resume := fs.Bool("resume", false, "farm mode: resume from -checkpoint instead of starting over")
	worker := fs.String("worker", "", "worker mode: lease and execute shards from the farmd coordinator at this URL")
	workerName := fs.String("worker-name", "", "worker mode: name reported in leases (default qgj-<pid>)")
	exitIdle := fs.Bool("exit-idle", false, "worker mode: exit when the coordinator has no pending shards")
	workerPoll := fs.Duration("poll", 500*time.Millisecond, "worker mode: idle backoff between empty lease polls")
	throttle := fs.Duration("throttle", 0, "worker mode: sleep this long after each lease before executing (testing aid)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *worker != "" {
		return runWorker(*worker, *workerName, *exitIdle, *workerPoll, *throttle)
	}

	sharding := core.Sharding{Workers: *workers, Checkpoint: *checkpoint, Resume: *resume}
	if sharding.Enabled() {
		if *resume && *checkpoint == "" {
			return fmt.Errorf("-resume requires -checkpoint")
		}
		return runFarm(sharding, *seed, *app, *campaign, *all, *quick, *metricsAddr, *linger, *progressEvery, *logDump)
	}

	phone := device.NewPhone("nexus4")
	watch := device.NewWatch("moto360")
	device.Pair(phone, watch)
	fleet := apps.BuildWearFleet(*seed)
	if err := fleet.InstallInto(watch.OS); err != nil {
		return err
	}
	core.InstallWearApp(watch)
	mobile := core.InstallMobileApp(phone)

	tel := watch.OS.Telemetry()
	if *metricsAddr != "" {
		srv, err := telemetry.Serve(*metricsAddr, tel)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "qgj: telemetry on http://%s/metrics\n", srv.Addr)
	}
	// A streaming analyzer mirrors the manifestation taxonomy into the
	// exposition (analysis_components{manifestation=...}) while campaigns run.
	col := analysis.NewCollector().UseTelemetry(tel)
	watch.OS.Logcat().Subscribe(col)

	if *list {
		comps, err := mobile.ListWearComponents()
		if err != nil {
			return err
		}
		for _, c := range comps {
			exported := "exported"
			if !c.Exported {
				exported = "internal"
			}
			fmt.Printf("%-8s %-9s %s/%s\n", c.Type, exported, c.Package, c.Class)
		}
		fmt.Printf("%d components\n", len(comps))
		return nil
	}

	if *app == "" {
		return fmt.Errorf("missing -app (or use -list); e.g. -app com.strava.wear")
	}
	gen := core.GeneratorConfig{Seed: *seed}
	if *quick > 0 {
		gen.ActionStride = *quick
		gen.SchemeStride = (*quick + 1) / 2
		gen.RandomVariants = 1
		gen.ExtrasVariants = 1
	}

	campaigns := core.AllCampaigns
	if !*all {
		c, err := core.ParseCampaign(*campaign)
		if err != nil {
			return err
		}
		campaigns = []core.Campaign{c}
	}
	if *progressEvery > 0 {
		start := time.Now()
		stop := telemetry.Watch(os.Stderr, *progressEvery, func() string {
			snap := tel.Snapshot()
			var injected uint64
			for k, v := range snap.Counters {
				if strings.HasPrefix(k, "qgj_intents_injected_total") {
					injected += v
				}
			}
			rate := float64(injected) / time.Since(start).Seconds()
			return fmt.Sprintf("qgj: %v injected=%d (%.0f/s) crashes=%d anrs=%d reboots=%d",
				time.Since(start).Round(time.Millisecond), injected, rate,
				snap.Counters["analysis_crash_events_total"],
				snap.Counters["analysis_anr_events_total"],
				snap.Counters["analysis_reboots_total"])
		})
		defer stop()
	}
	totalSent := 0
	for _, c := range campaigns {
		sum, err := mobile.StartFuzz(*app, c, gen)
		if err != nil {
			return err
		}
		totalSent += sum.Sent
		fmt.Println(sum.String())
	}
	if totalSent == 0 {
		// A campaign that injected nothing found nothing; exiting 0 here
		// would let a mis-scoped CI invocation pass silently.
		return fmt.Errorf("campaign recorded zero injections against %s — no fuzzable components matched", *app)
	}

	if *logDump {
		fmt.Print(watch.OS.Logcat().Dump())
	}
	if *linger > 0 {
		fmt.Fprintf(os.Stderr, "qgj: lingering %v for scrapes\n", *linger)
		time.Sleep(*linger)
	}
	return nil
}

// runWorker joins a farmd coordinator as a networked farm worker: lease a
// shard, verify the plan fingerprint, execute, upload, repeat. SIGINT or
// SIGTERM drains — the in-flight shard is finished and uploaded (or, if
// execution has not started, its lease is released back to the queue)
// before the process exits; a worker killed outright instead stops
// heartbeating and the coordinator's reaper re-queues its shard.
func runWorker(coordinator, name string, exitIdle bool, poll, throttle time.Duration) error {
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
		Throttle:     throttle,
		Log:          log.New(os.Stderr, "qgj-worker: ", 0),
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "qgj-worker: done — %d shards executed (%d intents), %d leases lost\n",
		stats.Executed, stats.Intents, stats.Lost)
	return nil
}

// runFarm executes the sharded campaign on the farm engine and prints the
// merged per-campaign summaries plus the triage roll-up.
func runFarm(sharding core.Sharding, seed uint64, app, campaign string, all bool, quick int, metricsAddr string, linger, progressEvery time.Duration, logDump bool) error {
	if logDump {
		fmt.Fprintln(os.Stderr, "qgj: -logcat is ignored in farm mode (each shard boots its own device)")
	}
	campaigns := core.AllCampaigns
	if !all {
		c, err := core.ParseCampaign(campaign)
		if err != nil {
			return err
		}
		campaigns = []core.Campaign{c}
	}
	gen := core.GeneratorConfig{}
	if quick > 0 {
		gen.ActionStride = quick
		gen.SchemeStride = (quick + 1) / 2
		gen.RandomVariants = 1
		gen.ExtrasVariants = 1
	}
	cfg := farm.Config{
		Seed:      seed,
		Fleet:     apps.WearFleet,
		Campaigns: campaigns,
		Gen:       gen,
		Sharding:  sharding,
		Telemetry: telemetry.NewRegistry(),
		Status:    farm.NewStatusBoard(),
	}
	if app != "" {
		cfg.Packages = []string{app}
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
	if prog != nil {
		snap := cfg.Telemetry.Snapshot()
		hits := snap.Counters["farm_snapshot_hits_total"]
		misses := snap.Counters["farm_snapshot_misses_total"]
		line := fmt.Sprintf("qgj: snapshot hits=%d misses=%d", hits, misses)
		if clone := snap.Histograms["farm_clone_seconds"]; clone.Count > 0 {
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
	if res.Resumed > 0 {
		fmt.Fprintf(os.Stderr, "qgj: resumed %d/%d shards from %s\n", res.Resumed, res.Shards, sharding.Checkpoint)
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
	if linger > 0 {
		fmt.Fprintf(os.Stderr, "qgj: lingering %v for scrapes\n", linger)
		time.Sleep(linger)
	}
	return nil
}
