// Package uifuzz implements QGJ-UI, the mutational UI-event fuzzer of
// Section III-E: run Monkey on the target device, parse its log for the UI
// events and intents it produced, mutate their arguments (semi-valid or
// random), and replay the mutated events through the adb shell utilities.
// Outcomes are read from logcat like every other experiment (Table V).
package uifuzz

import (
	"strconv"
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
	// line is the command line replay builds, reused across events.
	line []byte
	// grantPkg is the package pm grant targets, the device's first
	// installed package; Run reads it once, since no replayed command
	// installs or removes a package.
	grantPkg string
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
	log := gen.Log()

	// Step 6: walk the Monkey log back into events, once to mutate and
	// replay them and, in semi-valid mode, once before that for the
	// mutator's donor pools.
	events := monkey.Events(log)
	f.grantPkg = ""
	if pkgs := f.dev.Registry().Packages(); len(pkgs) > 0 {
		f.grantPkg = pkgs[0].Name
	}

	// Mutate and replay through adb; observe through logcat.
	mut := newMutator(mode, cfg.Seed, events)
	col := analysis.NewCollector().UseTelemetry(tel)
	f.dev.Logcat().Subscribe(col.Sink())
	defer f.dev.Logcat().Unsubscribe(col.Sink())

	out := Outcome{Mode: mode, Report: col.Report()}
	events(func(ev monkey.Event) bool {
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
		return true
	})
	return out
}

// replay sends one (mutated) event through the adb utilities.
func (f *Fuzzer) replay(ev monkey.Event) {
	c := f.line[:0]
	switch {
	case ev.IsIntent():
		c = appendWords(append(c, "am"...), ev.Intent...)
	case ev.Type == monkey.Touch || ev.Type == monkey.Motion:
		if len(ev.Args) < 3 {
			return
		}
		c = appendWords(append(c, "input tap"...), ev.Args[1], ev.Args[2])
	case ev.Type == monkey.Trackball || ev.Type == monkey.Nav || ev.Type == monkey.MajorNav:
		if len(ev.Args) < 4 {
			return
		}
		c = appendWords(append(c, "input swipe 100 100"...), ev.Args[1], ev.Args[3])
	case ev.Type == monkey.SysKeys:
		if len(ev.Args) < 1 {
			return
		}
		c = appendWords(append(c, "input keyevent"...), ev.Args[0])
	case ev.Type == monkey.Permission:
		// Monkey's permission events grant/revoke app permissions; pm
		// validates the permission string strictly.
		if len(ev.Args) < 1 || f.grantPkg == "" {
			return
		}
		c = appendWords(append(c, "pm grant"...), f.grantPkg, ev.Args[0])
	default:
		// FlipKeyboard and Rotation are absorbed by the window manager;
		// nothing to replay through adb.
		return
	}
	f.line = c
	f.shell.Run(string(c))
}

// appendWords appends each word to a command line, after a space.
func appendWords(c []byte, words ...string) []byte {
	for _, w := range words {
		c = append(append(c, ' '), w...)
	}
	return c
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
	// args and intent back the events mutate returns.
	args, intent []string
}

// newMutator builds a mutator. In semi-valid mode its donor pools hold the
// values observed over one walk of events; random mode never reads them, so
// it does not walk.
func newMutator(mode Mode, seed uint64, events func(yield func(monkey.Event) bool)) *mutator {
	m := &mutator{mode: mode, r: rng.New(seed).Split("ui-mutator")}
	if mode != SemiValid {
		return m
	}
	seenA, seenC := map[string]bool{}, map[string]bool{}
	events(func(ev monkey.Event) bool {
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
		return true
	})
	return m
}

// mutate returns a mutated copy of the event. The copy's Args and Intent
// live in slices the mutator owns: they never alias ev's, and they are
// valid until the next call.
func (m *mutator) mutate(ev monkey.Event) monkey.Event {
	out := monkey.Event{Type: ev.Type}
	out.Args = append(m.args[:0], ev.Args...)
	m.args = out.Args
	if len(ev.Intent) > 0 {
		out.Intent = append(m.intent[:0], ev.Intent...)
		m.mutateIntent(&out)
		m.intent = out.Intent
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
