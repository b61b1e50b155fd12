package experiments

import (
	"sync"

	"repro/internal/apps"
	"repro/internal/logcat"
	"repro/internal/uifuzz"
	"repro/internal/wearos"
)

// UIOptions configures the QGJ-UI experiment (Table V).
type UIOptions struct {
	Seed uint64
	// Events per mode; 0 = the paper's 41,405.
	Events int
}

// UIResult is the outcome of both mutation modes.
type UIResult struct {
	SemiValid uifuzz.Outcome
	Random    uifuzz.Outcome
}

// RunUIStudy executes the QGJ-UI experiment once per mutation mode
// (Section III-E), each on a freshly booted Android Watch emulator carrying
// the built-in apps plus the top-20 third-party apps: a fresh one per mode
// keeps runs independent and repeatable, the paper's stated reason for
// using the emulator at all. The emulator boots once; the random mode's
// device is a clone of that boot, which is a fresh boot state for state
// (wearos' TestCloneMatchesFreshBoot). Nothing couples the two runs, so
// they run side by side, one goroutine per device.
//
// Each device keeps a one-chunk logcat ring: its collector reads every
// line as it is appended, and nobody dumps its log.
func RunUIStudy(opts UIOptions) (*UIResult, error) {
	cfg := wearos.DefaultEmulatorConfig()
	cfg.LogCapacity = logcat.ChunkCapacity
	dev := wearos.New(cfg)
	boot, err := dev.Snapshot()
	if err != nil {
		return nil, err
	}
	res := &UIResult{}
	modes := []struct {
		mode uifuzz.Mode
		dev  *wearos.OS
		out  *uifuzz.Outcome
	}{{uifuzz.SemiValid, dev, &res.SemiValid}, {uifuzz.Random, boot.Clone(), &res.Random}}
	errs := make([]error, len(modes))
	var wg sync.WaitGroup
	for i, m := range modes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if errs[i] = apps.BuildEmulatorFleet(opts.Seed).InstallInto(m.dev); errs[i] != nil {
				return
			}
			*m.out = uifuzz.New(m.dev).Run(m.mode, uifuzz.Config{Seed: opts.Seed, Events: opts.Events})
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// TableVRow is one row of Table V.
type TableVRow struct {
	Experiment     string
	InjectedEvents int
	Exceptions     int
	ExceptionRate  float64
	Crashes        int
	CrashRate      float64
	SystemCrashes  int
}

// TableV renders the study as Table V's rows.
func TableV(res *UIResult) []TableVRow {
	row := func(o uifuzz.Outcome) TableVRow {
		return TableVRow{
			Experiment:     o.Mode.String(),
			InjectedEvents: o.Injected,
			Exceptions:     o.ExceptionsRaised,
			ExceptionRate:  o.ExceptionRate(),
			Crashes:        o.Crashes,
			CrashRate:      o.CrashRate(),
			SystemCrashes:  o.SystemCrashes,
		}
	}
	return []TableVRow{row(res.SemiValid), row(res.Random)}
}
