// Command qgjui runs the QGJ-UI experiment: Monkey-generated UI events and
// intents, mutated (semi-valid or random) and replayed through the adb
// shell utilities against the Android Watch emulator — Figure 1b end to
// end.
//
// Usage:
//
//	qgjui                      # both modes at paper scale (41405 events each)
//	qgjui -mode semi -n 5000   # one mode, smaller run
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/uifuzz"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "qgjui:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("qgjui", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "fleet and mutation seed")
	mode := fs.String("mode", "both", "mutation mode: semi, random, or both")
	events := fs.Int("n", 0, "events per mode (0 = the paper's 41405)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var modes []uifuzz.Mode
	switch *mode {
	case "semi", "semi-valid":
		modes = []uifuzz.Mode{uifuzz.SemiValid}
	case "random":
		modes = []uifuzz.Mode{uifuzz.Random}
	case "both":
		modes = []uifuzz.Mode{uifuzz.SemiValid, uifuzz.Random}
	default:
		return fmt.Errorf("unknown -mode %q (semi|random|both)", *mode)
	}

	for _, m := range modes {
		out, err := experiments.RunUIMode(experiments.UIOptions{Seed: *seed, Events: *events}, m)
		if err != nil {
			return err
		}
		fmt.Printf("%-10s injected=%d exceptions=%d (%.1f%%) crashes=%d (%.2f%%) systemCrashes=%d\n",
			out.Mode, out.Injected, out.ExceptionsRaised, 100*out.ExceptionRate(),
			out.Crashes, 100*out.CrashRate(), out.SystemCrashes)
	}
	return nil
}
