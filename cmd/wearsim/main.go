// Command wearsim inspects and pokes a simulated wearable directly: list
// packages and components, send a single intent through an adb-style shell,
// and dump logcat — a REPL-free debugging surface for the substrate.
//
// Usage:
//
//	wearsim -packages
//	wearsim -components com.strava.wear
//	wearsim -shell "am start -n com.strava.wear/.ui.MainActivity -a android.intent.action.VIEW -d tel:123"
//	wearsim -shell "..." -logcat
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/adb"
	"repro/internal/apps"
	"repro/internal/telemetry"
	"repro/internal/wearos"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "wearsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("wearsim", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "fleet seed")
	packages := fs.Bool("packages", false, "list installed packages")
	components := fs.String("components", "", "list components of a package")
	shell := fs.String("shell", "", "run one adb shell command")
	logDump := fs.Bool("logcat", false, "dump logcat at the end")
	dropbox := fs.Bool("dropbox", false, "dump DropBox crash/ANR/restart records at the end")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /vars and /debug/pprof on this address (e.g. :9100 or :0)")
	linger := fs.Duration("linger", 0, "keep the process (and -metrics-addr endpoint) alive this long after the run")
	if err := fs.Parse(args); err != nil {
		return err
	}

	fleet := apps.BuildWearFleet(*seed)
	dev := wearos.New(wearos.DefaultWatchConfig())
	if err := fleet.InstallInto(dev); err != nil {
		return err
	}
	if *metricsAddr != "" {
		srv, err := telemetry.Serve(*metricsAddr, dev.Telemetry())
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "wearsim: telemetry on http://%s/metrics\n", srv.Addr)
	}

	switch {
	case *packages:
		for _, p := range dev.Registry().Packages() {
			fmt.Printf("%-40s %-20s %-12s %2d components\n",
				p.Name, p.Category, p.Origin, len(p.Components))
		}
	case *components != "":
		p := dev.Registry().Package(*components)
		if p == nil {
			return fmt.Errorf("package %q not installed", *components)
		}
		for _, c := range p.Components {
			guard := ""
			if !c.Exported {
				guard = " (not exported)"
			} else if c.Permission != "" {
				guard = " (requires " + c.Permission + ")"
			}
			fmt.Printf("%-8s %s%s\n", c.Type, c.Name.FlattenToString(), guard)
		}
	case *shell != "":
		res := adb.NewShell(dev).Run(*shell)
		if res.Output != "" {
			fmt.Println(res.Output)
		}
		if res.SentIntent != nil {
			fmt.Printf("delivery: %s\n", res.Delivery)
		}
		if res.ExitCode != 0 {
			return fmt.Errorf("shell exited %d", res.ExitCode)
		}
	default:
		fs.Usage()
	}

	if *logDump {
		fmt.Print(dev.Logcat().Dump())
	}
	if *dropbox {
		for _, e := range dev.DropBoxEntries("") {
			fmt.Printf("%s %-16s %-32s %-48s %s\n",
				e.Time.Format("15:04:05.000"), e.Tag, e.Process,
				e.Component.FlattenToString(), e.Detail)
		}
	}
	if *linger > 0 {
		fmt.Fprintf(os.Stderr, "wearsim: lingering %v for scrapes\n", *linger)
		time.Sleep(*linger)
	}
	return nil
}
