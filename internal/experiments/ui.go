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

// RunUIStudy executes the QGJ-UI experiment on a fresh Android Watch
// emulator carrying the built-in apps plus the top-20 third-party apps,
// once per mutation mode (Section III-E).
func RunUIStudy(opts UIOptions) (*UIResult, error) {
	res := &UIResult{}
	var err error
	if res.SemiValid, err = RunUIMode(opts, uifuzz.SemiValid); err != nil {
		return nil, err
	}
	if res.Random, err = RunUIMode(opts, uifuzz.Random); err != nil {
		return nil, err
	}
	return res, nil
}

// RunUIMode runs one mutation mode of the QGJ-UI experiment on a fresh
// emulator: a fresh one per mode keeps runs independent and repeatable,
// the paper's stated reason for using the emulator at all.
func RunUIMode(opts UIOptions, mode uifuzz.Mode) (uifuzz.Outcome, error) {
	fleet := apps.BuildEmulatorFleet(opts.Seed)
	dev := wearos.New(wearos.DefaultEmulatorConfig())
	if err := fleet.InstallInto(dev); err != nil {
		return uifuzz.Outcome{}, err
	}
	return uifuzz.New(dev).Run(mode, uifuzz.Config{Seed: opts.Seed, Events: opts.Events}), nil
}

// TableVRow is one row of Table V.
type TableVRow struct {
	Experiment     string
	InjectedEvents int
	Exceptions     int
	ExceptionRate  float64
	Crashes        int
	CrashRate      float64
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
		}
	}
	return []TableVRow{row(res.SemiValid), row(res.Random)}
}
