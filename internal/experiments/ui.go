package experiments

import (
	"repro/internal/apps"
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
// (Section III-E), each on a fresh Android Watch emulator carrying the
// built-in apps plus the top-20 third-party apps: a fresh one per mode
// keeps runs independent and repeatable, the paper's stated reason for
// using the emulator at all.
func RunUIStudy(opts UIOptions) (*UIResult, error) {
	res := &UIResult{}
	for _, m := range []struct {
		mode uifuzz.Mode
		out  *uifuzz.Outcome
	}{{uifuzz.SemiValid, &res.SemiValid}, {uifuzz.Random, &res.Random}} {
		fleet := apps.BuildEmulatorFleet(opts.Seed)
		dev := wearos.New(wearos.DefaultEmulatorConfig())
		if err := fleet.InstallInto(dev); err != nil {
			return nil, err
		}
		*m.out = uifuzz.New(dev).Run(m.mode, uifuzz.Config{Seed: opts.Seed, Events: opts.Events})
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
