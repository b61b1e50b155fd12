// Command report regenerates every table and figure in the paper's
// evaluation section from a fresh simulation run.
//
// Usage:
//
//	report [-seed N] [-quick K] [-only tab1,tab2,fig3a,...] [-ui-events N]
//
// Artifacts: tab1 tab2 tab3 tab4 tab5 fig2 fig3a fig3b fig4 (default all).
// -quick K scales the campaign volume down by ~K² for fast smoke runs; the
// published numbers require the default full scale. `report -only tab5`
// runs the QGJ-UI experiment (both mutation modes, -ui-events per mode)
// and prints Table V; -json also exports each mode's system crashes.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/farm"
	"repro/internal/report"
	"repro/internal/telemetry"
)

// artifacts are the names -only selects from.
var artifacts = []string{"tab1", "tab2", "tab3", "tab4", "tab5", "fig2", "fig3a", "fig3b", "fig4"}

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
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /vars, /healthz and /farm on this address while the studies run")
	linger := fs.Duration("linger", 0, "keep the process (and -metrics-addr endpoint) alive this long after the run")
	progress := fs.Bool("progress", false, "print rate-limited study progress to stderr")
	workers := fs.Int("workers", 0, "shard the wear/phone studies across this many parallel devices (0 = the paper's single aging device)")
	checkpoint := fs.String("checkpoint", "", "shard the studies and journal completed shards to this file")
	resume := fs.Bool("resume", false, "sharded mode: resume from -checkpoint instead of starting over")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *resume && *checkpoint == "" {
		return fmt.Errorf("-resume requires -checkpoint")
	}
	want := map[string]bool{}
	if *only != "" {
		for _, a := range strings.Split(*only, ",") {
			a = strings.TrimSpace(strings.ToLower(a))
			if !slices.Contains(artifacts, a) {
				return fmt.Errorf("-only: unknown artifact %q (valid: %s)", a, strings.Join(artifacts, ", "))
			}
			want[a] = true
		}
	}
	sel := func(name string) bool { return len(want) == 0 || want[name] }

	var prog *telemetry.Progress
	if *progress {
		prog = telemetry.NewProgress(os.Stderr, 2*time.Second)
	}

	// The live-observability surface: one registry and one shard status
	// board shared by every study in this invocation. Sharded and aging
	// studies both run on the farm and feed them; an aging study's device
	// meters straight into the registry, which the export's telemetry block
	// then reads (without -metrics-addr the device keeps its own).
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

	gen := core.GeneratorConfig{}
	if *quick > 0 {
		gen = experiments.QuickGen(*quick)
	}

	// The one place the flags choose the study design: with no -workers
	// and no -checkpoint the studies are the paper's single aging watch,
	// otherwise independent shards with crash triage. Every study of this
	// invocation runs the same design.
	sharding := core.Sharding{Workers: *workers, Checkpoint: *checkpoint, Resume: *resume}
	study := farm.Config{
		Seed:      *seed,
		Gen:       gen,
		Sharding:  sharding,
		Telemetry: reg,
		Status:    board,
		Progress: func(done, total int, key farm.ShardKey, sent int) {
			prog.Tickf("report: %v campaign %s app %s sent=%d",
				prog.Elapsed().Round(time.Millisecond), key.Campaign.Letter(), key.Package, sent)
		},
	}
	if !sharding.Enabled() {
		study.Aging = farm.PaperAging()
	}

	// -json exports all three studies, so it runs whichever ones the
	// selected artifacts did not already need; -ablations compares the
	// phone study against the legacy one.
	needWear := *jsonOut != "" || sel("tab2") || sel("tab3") || sel("fig2") || sel("fig3a") || sel("fig3b") || sel("fig4")
	needPhone := *jsonOut != "" || *ablations || sel("tab4")
	needUI := *jsonOut != "" || sel("tab5")

	if sel("tab1") {
		fmt.Println(report.TableI(experiments.TableI(gen, 912)))
	}

	// The phone study never shares the wear study's checkpoint file — a
	// journal fingerprints exactly one shard plan — but keeps its design;
	// so does the legacy phone study of -ablations.
	phoneStudy := study
	phoneStudy.Sharding.Checkpoint = ""
	phoneStudy.Sharding.Resume = false

	var wear, phone *farm.Result
	if needWear {
		start := time.Now()
		var err error
		wear, err = experiments.RunWearStudy(study)
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
		var err error
		phone, err = experiments.RunPhoneStudy(phoneStudy)
		prog.Flush()
		if err != nil {
			return fmt.Errorf("phone study: %w", err)
		}
		fmt.Printf("[phone study: %d intents, %v]\n\n",
			phone.Sent, time.Since(start).Round(time.Millisecond))
		if sel("tab4") {
			rows, others, total := experiments.TableIV(phone)
			fmt.Println(report.TableIV(rows, others, total))
		}
	}

	var ui *experiments.UIResult
	if needUI {
		start := time.Now()
		var err error
		ui, err = experiments.RunUIStudy(experiments.UIOptions{Seed: *seed, Events: *uiEvents})
		if err != nil {
			return fmt.Errorf("ui study: %w", err)
		}
		fmt.Printf("[ui study: %v]\n\n", time.Since(start).Round(time.Millisecond))
		if sel("tab5") {
			fmt.Println(report.TableV(experiments.TableV(ui)))
		}
	}

	if *ablations {
		if err := runAblations(study, phoneStudy, phone); err != nil {
			return err
		}
	}

	if *jsonOut != "" {
		if err := writeJSONArtifacts(*jsonOut, *seed, wear, phone, ui); err != nil {
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

// writeJSONArtifacts writes the three studies' exports as one JSON
// document.
func writeJSONArtifacts(path string, seed uint64, wear, phone *farm.Result, ui *experiments.UIResult) error {
	doc := report.Artifacts{
		Wear:  report.ExportStudy(wear, seed),
		Phone: report.ExportStudy(phone, seed),
		UI:    report.ExportUI(ui),
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create JSON artifact file: %w", err)
	}
	defer f.Close()
	if err := report.WriteArtifacts(f, &doc); err != nil {
		return err
	}
	return f.Close()
}

// runAblations prints the extension studies: the aging-model ablations,
// the rejuvenation counterfactual (Section IV-E's mitigation), and the
// JJB-era input-validation comparison. The first two are aging plans
// whatever the invocation's design; the comparison runs the legacy phone
// study under phoneStudy, the config that produced phone.
func runAblations(study, phoneStudy farm.Config, phone *farm.Result) error {
	fmt.Println("EXTENSION: AGING-MODEL ABLATIONS (escalation apps + one crashy app)")
	rows, err := experiments.RunAgingAblations(study)
	if err != nil {
		return fmt.Errorf("aging ablations: %w", err)
	}
	for _, r := range rows {
		fmt.Printf("  %-18s reboots=%d (sent=%d)\n", r.Name, r.Reboots, r.Sent)
	}

	fmt.Println("\nEXTENSION: SOFTWARE REJUVENATION COUNTERFACTUAL (Section IV-E)")
	rs, err := experiments.RunRejuvenationStudy(study)
	if err != nil {
		return fmt.Errorf("rejuvenation study: %w", err)
	}
	fmt.Printf("  baseline reboots=%d, rejuvenated reboots=%d, rejuvenations=%d (sent=%d)\n",
		rs.BaselineReboots, rs.RejuvenatedReboots, rs.Rejuvenations, rs.Sent)

	fmt.Println("\nEXTENSION: INPUT-VALIDATION ERAS (JJB-era Android 2.x vs Android 7.1.1)")
	legacy, err := experiments.RunLegacyPhoneStudy(phoneStudy)
	if err != nil {
		return fmt.Errorf("legacy phone study: %w", err)
	}
	cmp := experiments.CompareValidationEras(legacy, phone)
	fmt.Printf("  NPE share of crashes: legacy %.1f%% -> modern %.1f%%\n",
		100*cmp.LegacyNPEShare, 100*cmp.ModernNPEShare)
	fmt.Printf("  crashing components:  legacy %d -> modern %d (of %d)\n",
		cmp.LegacyCrashComp, cmp.ModernCrashComp, cmp.Components)
	return nil
}
