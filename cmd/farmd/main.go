// Command farmd is the distributed farm service: a long-running coordinator
// that hosts fuzzing campaigns as a durable work queue and shards them
// across networked workers (qgj -worker) over HTTP, with the same
// determinism contract as the in-process farm — the merged report is
// byte-identical to a single-process run of the same spec, no matter how
// many workers took part or died mid-lease.
//
// Usage:
//
//	farmd serve  -addr :8787 -data /var/lib/farmd     # run the coordinator
//	farmd submit -addr URL -quick 4 -campaigns AC     # host a campaign
//	farmd list   -addr URL                            # campaigns + states
//	farmd status -addr URL -id c1-...                 # one campaign's info
//	farmd wait   -addr URL -id c1-...                 # stream triage until merged
//	farmd export -addr URL -id c1-... -o out.json     # canonical merged export
//	farmd local  -quick 4 -campaigns AC -o out.json   # same spec, in-process
//
// serve requires -data, the durable queue directory. It drains gracefully
// on SIGINT/SIGTERM: no new leases or uploads, in-flight merges finish,
// every campaign journal is flushed and closed. A coordinator restarted on
// the same -data replays its journals, lists its campaigns in submission
// order and re-queues exactly the unfinished shards.
//
// local runs the identical spec through the in-process farm engine and
// renders the same canonical export, producing the baseline the service's
// byte-identical-merge guarantee is checked against (scripts/verify.sh does
// exactly this: serve + two workers, one killed mid-lease, then cmp against
// local).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/farm"
	"repro/internal/service"
	"repro/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "farmd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: farmd <serve|submit|list|status|wait|export|local> [flags]")
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "serve":
		return serve(rest)
	case "submit":
		return submit(rest)
	case "list":
		return list(rest)
	case "status":
		return status(rest)
	case "wait":
		return wait(rest)
	case "export":
		return export(rest)
	case "local":
		return local(rest)
	default:
		return fmt.Errorf("unknown subcommand %q (want serve, submit, list, status, wait, export, or local)", cmd)
	}
}

func serve(args []string) error {
	fs := flag.NewFlagSet("farmd serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8787", "listen address for the campaign API and telemetry")
	dataDir := fs.String("data", "", "durable queue directory (campaign sidecars + journals); required")
	leaseTTL := fs.Duration("lease-ttl", 30*time.Second, "lease lifetime between worker heartbeats")
	if err := fs.Parse(args); err != nil {
		return err
	}
	reg := telemetry.NewRegistry()
	coord, err := service.NewCoordinator(service.Options{
		DataDir:   *dataDir,
		LeaseTTL:  *leaseTTL,
		Telemetry: reg,
	})
	if err != nil {
		return err
	}
	srv, err := telemetry.Serve(*addr, reg, service.Routes(coord)...)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "farmd: serving on http://%s (lease TTL %v, durable queue in %s)\n", srv.Addr, *leaseTTL, *dataDir)
	for _, info := range coord.Campaigns() {
		fmt.Fprintf(os.Stderr, "farmd: restored campaign %s (%s, %d/%d shards done)\n",
			info.ID, info.State, info.Done, info.Shards)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	fmt.Fprintln(os.Stderr, "farmd: signal received; draining")
	srv.Close()
	if err := coord.Shutdown(); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	fmt.Fprintln(os.Stderr, "farmd: drained (journals flushed, queue state durable)")
	return nil
}

// specFlags registers the campaign-spec flags shared by submit and local
// and returns a builder for the parsed spec.
func specFlags(fs *flag.FlagSet) func() service.CampaignSpec {
	seed := fs.Uint64("seed", 1, "fleet and fuzzer seed")
	fleet := fs.String("fleet", "wear", "app population: wear, phone, or legacy-phone")
	campaigns := fs.String("campaigns", "", "campaign letters to run (subset of ABCD, plus F for fault injection; empty = all of A-D)")
	app := fs.String("app", "", "comma-separated package allowlist (empty = whole fleet)")
	quick := fs.Int("quick", 0, "scale factor k (>0 shrinks campaigns; 0 = full paper scale)")
	noTriage := fs.Bool("no-triage", false, "skip crash bucketing and minimization in the merge")
	return func() service.CampaignSpec {
		spec := service.CampaignSpec{
			Seed:          *seed,
			Fleet:         *fleet,
			Campaigns:     *campaigns,
			Quick:         *quick,
			DisableTriage: *noTriage,
		}
		if *app != "" {
			spec.Packages = strings.Split(*app, ",")
		}
		return spec
	}
}

func submit(args []string) error {
	fs := flag.NewFlagSet("farmd submit", flag.ContinueOnError)
	addr := fs.String("addr", "http://127.0.0.1:8787", "coordinator base URL")
	spec := specFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	info, err := service.NewClient(*addr, nil).Submit(spec())
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "farmd: campaign %s submitted (%d shards, fingerprint %s)\n",
		info.ID, info.Shards, info.Fingerprint)
	fmt.Println(info.ID)
	return nil
}

func list(args []string) error {
	fs := flag.NewFlagSet("farmd list", flag.ContinueOnError)
	addr := fs.String("addr", "http://127.0.0.1:8787", "coordinator base URL")
	if err := fs.Parse(args); err != nil {
		return err
	}
	infos, err := service.NewClient(*addr, nil).Campaigns()
	if err != nil {
		return err
	}
	for _, info := range infos {
		fmt.Printf("%-16s %-9s shards=%d done=%d leased=%d pending=%d sent=%d fp=%s\n",
			info.ID, info.State, info.Shards, info.Done, info.Leased, info.Pending,
			info.Sent, info.Fingerprint)
	}
	return nil
}

func status(args []string) error {
	fs := flag.NewFlagSet("farmd status", flag.ContinueOnError)
	addr := fs.String("addr", "http://127.0.0.1:8787", "coordinator base URL")
	id := fs.String("id", "", "campaign ID")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" {
		return fmt.Errorf("missing -id")
	}
	info, err := service.NewClient(*addr, nil).Campaign(*id)
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(info, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// wait follows the campaign's triage stream (bucket births and growth as
// shard results land) until the coordinator closes it at merge time, then
// reports the final state.
func wait(args []string) error {
	fs := flag.NewFlagSet("farmd wait", flag.ContinueOnError)
	addr := fs.String("addr", "http://127.0.0.1:8787", "coordinator base URL")
	id := fs.String("id", "", "campaign ID")
	quiet := fs.Bool("quiet", false, "suppress live bucket updates")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" {
		return fmt.Errorf("missing -id")
	}
	client := service.NewClient(*addr, nil)
	cursor := 0
	for {
		page, err := client.Triage(*id, cursor, true)
		if err != nil {
			return err
		}
		for _, up := range page.Updates {
			if *quiet {
				continue
			}
			tag := "      "
			if up.New {
				tag = "NEW   "
			}
			line := fmt.Sprintf("%s %016x ×%-4d %s", tag, up.Hash, up.Count, up.Class)
			if up.Frame != "" {
				line += " at " + up.Frame
			}
			if up.Exemplar != "" {
				line += fmt.Sprintf("  exemplar=%s flight=%d events", up.Exemplar, len(up.Flight))
			}
			fmt.Println(line)
		}
		cursor = page.Cursor
		if page.Closed {
			break
		}
	}
	info, err := client.Campaign(*id)
	if err != nil {
		return err
	}
	if info.State == service.CampaignFailed {
		return fmt.Errorf("campaign %s failed: %s", info.ID, info.Error)
	}
	fmt.Fprintf(os.Stderr, "farmd: campaign %s %s (%d shards, %d intents)\n",
		info.ID, info.State, info.Shards, info.Sent)
	return nil
}

func export(args []string) error {
	fs := flag.NewFlagSet("farmd export", flag.ContinueOnError)
	addr := fs.String("addr", "http://127.0.0.1:8787", "coordinator base URL")
	id := fs.String("id", "", "campaign ID")
	out := fs.String("o", "", "write the export here instead of stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" {
		return fmt.Errorf("missing -id")
	}
	data, err := service.NewClient(*addr, nil).Export(*id)
	if err != nil {
		return err
	}
	if *out == "" {
		os.Stdout.Write(data)
		return nil
	}
	return os.WriteFile(*out, data, 0o644)
}

// local runs the spec through the in-process farm engine and writes the
// same canonical export the service produces — the serial baseline for the
// byte-identical-merge check.
func local(args []string) error {
	fs := flag.NewFlagSet("farmd local", flag.ContinueOnError)
	workers := fs.Int("workers", 1, "in-process farm worker count (results identical for any value)")
	out := fs.String("o", "", "write the export here instead of stdout")
	spec := specFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sp := spec()
	cfg, err := sp.FarmConfig()
	if err != nil {
		return err
	}
	cfg.Sharding.Workers = *workers
	res, err := farm.Run(cfg)
	if err != nil {
		return err
	}
	data, err := service.ExportResult(res, sp.Seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "farmd: local run complete (%d shards, %d intents)\n", res.Shards, res.Sent)
	if *out == "" {
		os.Stdout.Write(data)
		return nil
	}
	return os.WriteFile(*out, data, 0o644)
}
