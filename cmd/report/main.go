// Command report regenerates every table and figure in the paper's
// evaluation section from a fresh simulation run.
//
// Usage:
//
//	report [-seed N] [-quick K] [-only tab1,tab2,fig3a,...]
//
// Artifacts: tab1 tab2 tab3 tab4 tab5 fig2 fig3a fig3b fig4 (default all).
// -quick K scales the campaign volume down by ~K² for fast smoke runs; the
// published numbers require the default full scale.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/farm"
	"repro/internal/report"
	"repro/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "report:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "experiment seed")
	quick := fs.Int("quick", 0, "scale factor k (>0 shrinks campaigns ~k^2; 0 = full paper scale)")
	only := fs.String("only", "", "comma-separated artifact list (tab1..tab5, fig2, fig3a, fig3b, fig4)")
	uiEvents := fs.Int("ui-events", 0, "QGJ-UI events per mode (0 = the paper's 41405)")
	ablations := fs.Bool("ablations", false, "also run the extension studies (aging ablations, rejuvenation, validation eras)")
	jsonOut := fs.String("json", "", "also write machine-readable artifacts to this file (wear+phone+ui exports)")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /vars, /healthz and /farm on this address while the studies run (farm mode feeds them)")
	linger := fs.Duration("linger", 0, "keep the process (and -metrics-addr endpoint) alive this long after the run")
	progress := fs.Bool("progress", false, "print rate-limited study progress to stderr")
	workers := fs.Int("workers", 0, "run the wear/phone studies on the farm engine with this many parallel devices (>1 enables sharding)")
	checkpoint := fs.String("checkpoint", "", "farm mode: journal completed shards to this file")
	resume := fs.Bool("resume", false, "farm mode: resume from -checkpoint instead of starting over")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sharding := core.Sharding{Workers: *workers, Checkpoint: *checkpoint, Resume: *resume}
	if *resume && *checkpoint == "" {
		return fmt.Errorf("-resume requires -checkpoint")
	}

	var prog *telemetry.Progress
	if *progress {
		prog = telemetry.NewProgress(os.Stderr, 2*time.Second)
	}
	progressCB := func(c core.Campaign, pkg string, sent int) {
		prog.Tickf("report: %v campaign %s app %s sent=%d",
			prog.Elapsed().Round(time.Millisecond), c.Letter(), pkg, sent)
	}

	// The live-observability surface: one registry and one shard status
	// board shared by every farm-backed study in this invocation. Serial
	// (unsharded) studies run their own per-device registries and leave
	// these empty — the endpoints still answer, which is what a scrape
	// harness wants.
	var reg *telemetry.Registry
	var board *farm.StatusBoard
	if *metricsAddr != "" {
		reg = telemetry.NewRegistry()
		board = farm.NewStatusBoard()
		srv, err := telemetry.Serve(*metricsAddr, reg,
			telemetry.Route{Pattern: "/farm", Handler: farm.StatusHandler(board)})
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "report: telemetry on http://%s/metrics\n", srv.Addr)
	}

	want := map[string]bool{}
	if *only != "" {
		for _, a := range strings.Split(*only, ",") {
			want[strings.TrimSpace(strings.ToLower(a))] = true
		}
	}
	sel := func(name string) bool { return len(want) == 0 || want[name] }

	gen := core.GeneratorConfig{}
	if *quick > 0 {
		gen = experiments.QuickGen(*quick)
	}

	needWear := sel("tab2") || sel("tab3") || sel("fig2") || sel("fig3a") || sel("fig3b") || sel("fig4")
	needPhone := sel("tab4")
	needUI := sel("tab5")

	if sel("tab1") {
		fmt.Println(report.TableI(experiments.TableI(gen, 912)))
	}

	var wear *experiments.StudyResult
	if needWear {
		start := time.Now()
		var err error
		wear, err = experiments.RunWearStudy(experiments.Options{Seed: *seed, Gen: gen, Progress: progressCB, Sharding: sharding, Telemetry: reg, Status: board})
		// Flush the last rate-limited heartbeat so the final counts are not
		// swallowed when the study ends between ticks.
		prog.Flush()
		if err != nil {
			return fmt.Errorf("wear study: %w", err)
		}
		fmt.Printf("[wear study: %d intents, %d reboots, %v]\n\n",
			wear.Sent, wear.Reboots(), time.Since(start).Round(time.Millisecond))
		if wear.Triage != nil {
			fmt.Printf("[wear triage: %d unique failure signatures / %d raw crashes / %d ANRs]\n\n",
				wear.Triage.Unique(), wear.Triage.Crashes-wear.Triage.ANRs-wear.Triage.Faults,
				wear.Triage.ANRs)
			if rows := experiments.FaultResilience(wear); len(rows) > 0 {
				fmt.Println(report.FaultTable(rows))
			}
		}
	}
	if sel("tab2") {
		fmt.Println(report.TableII(experiments.TableII(wear.Fleet)))
	}
	if sel("tab3") {
		fmt.Println(report.TableIII(experiments.TableIII(wear)))
	}
	if sel("fig2") {
		fmt.Println(report.Fig2(experiments.Fig2(wear)))
	}
	if sel("fig3a") {
		fmt.Println(report.Fig3a(experiments.Fig3a(wear)))
	}
	if sel("fig3b") {
		fmt.Println(report.Fig3b(experiments.Fig3b(wear), experiments.Fig3a(wear)))
	}
	if sel("fig4") {
		fmt.Println(report.Fig4(experiments.Fig4(wear)))
	}

	if needPhone {
		start := time.Now()
		// The phone study never shares the wear study's checkpoint file — a
		// journal fingerprints exactly one shard plan.
		phoneSharding := sharding
		phoneSharding.Checkpoint = ""
		phoneSharding.Resume = false
		phone, err := experiments.RunPhoneStudy(experiments.Options{Seed: *seed, Gen: gen, Progress: progressCB, Sharding: phoneSharding, Telemetry: reg, Status: board})
		prog.Flush()
		if err != nil {
			return fmt.Errorf("phone study: %w", err)
		}
		fmt.Printf("[phone study: %d intents, %v]\n\n",
			phone.Sent, time.Since(start).Round(time.Millisecond))
		rows, others, total := experiments.TableIV(phone)
		fmt.Println(report.TableIV(rows, others, total))
	}

	if needUI {
		start := time.Now()
		ui, err := experiments.RunUIStudy(experiments.UIOptions{Seed: *seed, Events: *uiEvents})
		if err != nil {
			return fmt.Errorf("ui study: %w", err)
		}
		fmt.Printf("[ui study: %v]\n\n", time.Since(start).Round(time.Millisecond))
		fmt.Println(report.TableV(experiments.TableV(ui)))
	}

	if *ablations {
		if err := runAblations(*seed, gen); err != nil {
			return err
		}
	}

	if *jsonOut != "" {
		if err := writeJSONArtifacts(*jsonOut, *seed, gen, *uiEvents, sharding); err != nil {
			return err
		}
		fmt.Printf("[machine-readable artifacts written to %s]\n", *jsonOut)
	}
	if *linger > 0 {
		fmt.Fprintf(os.Stderr, "report: lingering %v for scrapes\n", *linger)
		time.Sleep(*linger)
	}
	return nil
}

// writeJSONArtifacts re-runs the three studies and writes their exports as
// one JSON document. The export runs never reuse the CLI's checkpoint file
// (a journal fingerprints exactly one shard plan), only its worker count.
func writeJSONArtifacts(path string, seed uint64, gen core.GeneratorConfig, uiEvents int, sharding core.Sharding) error {
	sharding.Checkpoint = ""
	sharding.Resume = false
	wear, err := experiments.RunWearStudy(experiments.Options{Seed: seed, Gen: gen, Sharding: sharding})
	if err != nil {
		return fmt.Errorf("wear study for JSON export: %w", err)
	}
	phone, err := experiments.RunPhoneStudy(experiments.Options{Seed: seed, Gen: gen, Sharding: sharding})
	if err != nil {
		return fmt.Errorf("phone study for JSON export: %w", err)
	}
	ui, err := experiments.RunUIStudy(experiments.UIOptions{Seed: seed, Events: uiEvents})
	if err != nil {
		return fmt.Errorf("ui study for JSON export: %w", err)
	}
	doc := struct {
		Wear  report.StudyExport `json:"wear"`
		Phone report.StudyExport `json:"phone"`
		UI    report.UIExport    `json:"ui"`
	}{
		Wear:  report.ExportStudy(wear, seed),
		Phone: report.ExportStudy(phone, seed),
		UI:    report.ExportUI(ui),
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create JSON artifact file: %w", err)
	}
	defer f.Close()
	return report.WriteJSON(f, doc)
}

// runAblations prints the extension studies: the aging-model ablations,
// the rejuvenation counterfactual (Section IV-E's mitigation), and the
// JJB-era input-validation comparison.
func runAblations(seed uint64, gen core.GeneratorConfig) error {
	fmt.Println("EXTENSION: AGING-MODEL ABLATIONS (escalation apps + one crashy app)")
	rows, err := experiments.RunAgingAblations(seed, gen)
	if err != nil {
		return fmt.Errorf("aging ablations: %w", err)
	}
	for _, r := range rows {
		fmt.Printf("  %-18s reboots=%d (sent=%d)\n", r.Name, r.Reboots, r.Sent)
	}

	fmt.Println("\nEXTENSION: SOFTWARE REJUVENATION COUNTERFACTUAL (Section IV-E)")
	rs, err := experiments.RunRejuvenationStudy(seed, gen)
	if err != nil {
		return fmt.Errorf("rejuvenation study: %w", err)
	}
	fmt.Printf("  baseline reboots=%d, rejuvenated reboots=%d, rejuvenations=%d (sent=%d)\n",
		rs.BaselineReboots, rs.RejuvenatedReboots, rs.Rejuvenations, rs.Sent)

	fmt.Println("\nEXTENSION: INPUT-VALIDATION ERAS (JJB-era Android 2.x vs Android 7.1.1)")
	cmp, err := experiments.CompareValidationEras(experiments.Options{Seed: seed, Gen: gen})
	if err != nil {
		return fmt.Errorf("era comparison: %w", err)
	}
	fmt.Printf("  NPE share of crashes: legacy %.1f%% -> modern %.1f%%\n",
		100*cmp.LegacyNPEShare, 100*cmp.ModernNPEShare)
	fmt.Printf("  crashing components:  legacy %d -> modern %d (of %d)\n",
		cmp.LegacyCrashComp, cmp.ModernCrashComp, cmp.Components)
	return nil
}
