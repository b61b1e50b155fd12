// Package uifuzz implements QGJ-UI, the mutational UI-event fuzzer of
// Section III-E: run Monkey on the target device, parse its log for the UI
// events and intents it produced, mutate their arguments (semi-valid or
// random), and replay the mutated events through the adb shell utilities.
// Outcomes are read from logcat like every other experiment (Table V).
package uifuzz

import (
	"strconv"
	"strings"
	"time"

	"repro/internal/adb"
	"repro/internal/analysis"
	"repro/internal/monkey"
	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/wearos"
)

// Mode selects the mutation strategy (Table V's two experiments).
type Mode int

const (
	// SemiValid replaces an event argument with another *valid* value
	// observed for that argument position during the run.
	SemiValid Mode = iota + 1
	// Random replaces arguments "with a random ASCII string or a float
	// value (depending on type)" — e.g. `input tap -8803.85 4668.17`.
	Random
)

// String names the mode the way Table V labels its rows.
func (m Mode) String() string {
	switch m {
	case SemiValid:
		return "Semi-valid"
	case Random:
		return "Random"
	default:
		return "unknown"
	}
}

// Config parameterizes one QGJ-UI experiment.
type Config struct {
	Seed uint64
	// Events is the number of injected (mutated) events; the paper ran
	// 41,405 per mode.
	Events int
}

// PaperEventCount is Table V's per-mode event volume.
const PaperEventCount = 41405

// Outcome tallies one experiment the way Table V reports it.
type Outcome struct {
	Mode Mode
	// Injected is the number of mutated events sent.
	Injected int
	// ExceptionsRaised counts events whose handling raised any exception
	// (1496 / 615 in the paper).
	ExceptionsRaised int
	// Crashes counts events that crashed an app (22 / 0 in the paper).
	Crashes int
	// SystemCrashes counts device reboots (the paper observed none).
	SystemCrashes int
	// Report is the full log-derived analysis for deeper inspection.
	Report *analysis.Report
}

// ExceptionRate returns ExceptionsRaised / Injected.
func (o Outcome) ExceptionRate() float64 {
	if o.Injected == 0 {
		return 0
	}
	return float64(o.ExceptionsRaised) / float64(o.Injected)
}

// CrashRate returns Crashes / Injected.
func (o Outcome) CrashRate() float64 {
	if o.Injected == 0 {
		return 0
	}
	return float64(o.Crashes) / float64(o.Injected)
}

// Fuzzer drives the QGJ-UI workflow against one device.
type Fuzzer struct {
	dev   *wearos.OS
	shell *adb.Shell
}

// New builds a fuzzer for the device.
func New(dev *wearos.OS) *Fuzzer {
	return &Fuzzer{dev: dev, shell: adb.NewShell(dev)}
}

// Run executes the full QGJ-UI pipeline for one mode.
func (f *Fuzzer) Run(mode Mode, cfg Config) Outcome {
	if cfg.Events <= 0 {
		cfg.Events = PaperEventCount
	}
	tel := f.dev.Telemetry()
	var evTotal, excTotal, crashTotal *telemetry.Counter
	if tel != nil {
		ml := telemetry.L("mode", mode.String())
		evTotal = tel.Counter("uifuzz_events_total", ml)
		excTotal = tel.Counter("uifuzz_exceptions_total", ml)
		crashTotal = tel.Counter("uifuzz_crashes_total", ml)
	}

	// Step 5: run Monkey to produce the baseline event stream and log.
	gen := monkey.NewGenerator(f.dev, monkey.Config{Seed: cfg.Seed, Events: cfg.Events})
	log := monkey.RenderLog(gen.Generate())

	// Step 6: parse the Monkey log back into events.
	events := monkey.ParseLog(log)

	// Mutate and replay through adb; observe through logcat.
	mut := newMutator(mode, cfg.Seed, events)
	col := analysis.NewCollector().UseTelemetry(tel)
	f.dev.Logcat().Subscribe(col.Sink())
	defer f.dev.Logcat().Unsubscribe(col.Sink())

	out := Outcome{Mode: mode, Report: col.Report()}
	for _, ev := range events {
		mutated := mut.mutate(ev)
		crashesBefore := out.Report.CrashEvents
		exceptionsBefore := col.Exceptions()
		rebootsBefore := len(out.Report.RebootTimes)

		f.replay(mutated)
		out.Injected++
		evTotal.Inc()

		if out.Report.CrashEvents > crashesBefore {
			out.Crashes++
			crashTotal.Inc()
		}
		if col.Exceptions() > exceptionsBefore {
			out.ExceptionsRaised++
			excTotal.Inc()
		}
		if len(out.Report.RebootTimes) > rebootsBefore {
			out.SystemCrashes++
		}
		// Light pacing: Monkey throttles between events.
		f.dev.Clock().Advance(10 * time.Millisecond)
	}
	return out
}

// replay sends one (mutated) event through the adb utilities.
func (f *Fuzzer) replay(ev monkey.Event) adb.Result {
	if ev.IsIntent() {
		return f.shell.Run("am " + strings.Join(ev.Intent, " "))
	}
	switch ev.Type {
	case monkey.Touch, monkey.Motion:
		if len(ev.Args) >= 3 {
			return f.shell.Run("input tap " + ev.Args[1] + " " + ev.Args[2])
		}
	case monkey.Trackball, monkey.Nav, monkey.MajorNav:
		if len(ev.Args) >= 4 {
			return f.shell.Run("input swipe 100 100 " + ev.Args[1] + " " + ev.Args[3])
		}
	case monkey.SysKeys:
		if len(ev.Args) >= 1 {
			return f.shell.Run("input keyevent " + ev.Args[0])
		}
	case monkey.Permission:
		if len(ev.Args) >= 1 {
			// Monkey's permission events grant/revoke app permissions; pm
			// validates the permission string strictly.
			pkgs := f.dev.Registry().Packages()
			if len(pkgs) > 0 {
				return f.shell.Run("pm grant " + pkgs[0].Name + " " + ev.Args[0])
			}
		}
	case monkey.FlipKeyboard, monkey.Rotation:
		// Absorbed by the window manager; nothing to replay through adb.
	}
	return adb.Result{}
}

// mutator implements the two argument-mutation strategies.
type mutator struct {
	mode Mode
	r    *rng.Source
	// observed collects valid values per argument position, the semi-valid
	// donor pool ("the arguments for an event are randomly replaced by
	// another valid value for that argument that had been observed during
	// the experiment").
	observedActions []string
	observedComps   []string
	observedCoords  []string
	observedPerms   []string
	observedKeys    []string
}

func newMutator(mode Mode, seed uint64, events []monkey.Event) *mutator {
	m := &mutator{mode: mode, r: rng.New(seed).Split("ui-mutator")}
	seenA, seenC := map[string]bool{}, map[string]bool{}
	for _, ev := range events {
		if ev.IsIntent() {
			for i := 0; i+1 < len(ev.Intent); i++ {
				switch ev.Intent[i] {
				case "-a":
					if !seenA[ev.Intent[i+1]] {
						seenA[ev.Intent[i+1]] = true
						m.observedActions = append(m.observedActions, ev.Intent[i+1])
					}
				case "-n":
					if !seenC[ev.Intent[i+1]] {
						seenC[ev.Intent[i+1]] = true
						m.observedComps = append(m.observedComps, ev.Intent[i+1])
					}
				}
			}
		}
		switch ev.Type {
		case monkey.Touch, monkey.Motion:
			if len(ev.Args) >= 3 {
				m.observedCoords = append(m.observedCoords, ev.Args[1], ev.Args[2])
			}
		case monkey.Permission:
			if len(ev.Args) >= 1 {
				m.observedPerms = append(m.observedPerms, ev.Args[0])
			}
		case monkey.SysKeys:
			if len(ev.Args) >= 1 {
				m.observedKeys = append(m.observedKeys, ev.Args[0])
			}
		}
	}
	return m
}

// mutate returns a mutated copy of the event.
func (m *mutator) mutate(ev monkey.Event) monkey.Event {
	out := monkey.Event{Type: ev.Type}
	out.Args = append([]string(nil), ev.Args...)
	out.Intent = append([]string(nil), ev.Intent...)

	if out.IsIntent() {
		m.mutateIntent(&out)
		return out
	}
	switch ev.Type {
	case monkey.Touch, monkey.Motion:
		if len(out.Args) >= 3 {
			out.Args[1] = m.mutateCoord(out.Args[1])
			out.Args[2] = m.mutateCoord(out.Args[2])
		}
	case monkey.Trackball, monkey.Nav, monkey.MajorNav:
		if len(out.Args) >= 4 {
			out.Args[1] = m.mutateCoord(out.Args[1])
			out.Args[3] = m.mutateCoord(out.Args[3])
		}
	case monkey.SysKeys:
		if len(out.Args) >= 1 {
			out.Args[0] = m.mutateKey(out.Args[0])
		}
	case monkey.Permission:
		if len(out.Args) >= 1 {
			out.Args[0] = m.mutatePermission(out.Args[0])
		}
	}
	return out
}

func (m *mutator) mutateIntent(ev *monkey.Event) {
	for i := 0; i+1 < len(ev.Intent); i++ {
		switch ev.Intent[i] {
		case "-a":
			if m.mode == SemiValid && len(m.observedActions) > 1 {
				ev.Intent[i+1] = rng.Pick(m.r, m.observedActions)
			} else if m.mode == Random {
				ev.Intent[i+1] = m.r.ASCII(6, 20) // 'S0me.r@ndom.$trinG'
			}
		case "-n":
			if m.mode == SemiValid && len(m.observedComps) > 1 {
				ev.Intent[i+1] = rng.Pick(m.r, m.observedComps)
			}
			// Random mode keeps the component: am needs *some* resolvable
			// target, and the paper's finding is that am forwards the
			// random action string to it.
		}
	}
	// Semi-valid component swaps can orphan the action: launching another
	// app's launcher with a foreign action is exactly the semi-valid
	// corruption QGJ-UI induces. Additionally attach a datum sometimes.
	if m.mode == SemiValid && m.r.Bool(0.35) {
		donors := []string{"-d", "tel:123", "-d", "https://foo.com/", "--esn", "android.intent.extra.STREAM"}
		k := m.r.Intn(3) * 2
		ev.Intent = append(ev.Intent, donors[k], donors[k+1])
	}
	if m.mode == Random && m.r.Bool(0.25) {
		ev.Intent = append(ev.Intent, "-d", m.r.ASCII(4, 12))
	}
}

func (m *mutator) mutateCoord(cur string) string {
	if m.mode == SemiValid && len(m.observedCoords) > 1 {
		return rng.Pick(m.r, m.observedCoords)
	}
	// Random float, often far outside the screen.
	v := (m.r.Float64() - 0.5) * 20000
	return strconv.FormatFloat(v, 'f', 2, 64)
}

func (m *mutator) mutateKey(cur string) string {
	if m.mode == SemiValid && len(m.observedKeys) > 1 {
		return rng.Pick(m.r, m.observedKeys)
	}
	return m.r.ASCII(3, 10)
}

func (m *mutator) mutatePermission(cur string) string {
	if m.mode == SemiValid && len(m.observedPerms) > 1 {
		return rng.Pick(m.r, m.observedPerms)
	}
	return "S0me.r@ndom." + m.r.ASCII(4, 8)
}
