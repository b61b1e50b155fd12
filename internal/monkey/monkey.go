// Package monkey simulates the Android UI/Application Exerciser Monkey,
// the stress tool QGJ-UI builds on. Monkey generates a stream of
// pseudo-random UI events (touch, trackball, app switch, permission, ...)
// against the device; QGJ-UI runs it first, parses its log to learn the
// events and intents it produced, then mutates and replays them
// (Section III-E, workflow steps 5-6 of Figure 1b).
package monkey

import (
	"strconv"
	"strings"
	"unicode"

	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/wearos"
)

// EventType enumerates Monkey's event categories. QGJ-UI specifies "equal
// percentages for different types of events (e.g. touch, trackball, app
// switch, permission etc.)".
type EventType int

const (
	Touch EventType = iota + 1
	Motion
	Trackball
	Nav
	MajorNav
	SysKeys
	AppSwitch
	FlipKeyboard
	Permission
	Rotation
)

// AllEventTypes lists the generated categories.
var AllEventTypes = []EventType{
	Touch, Motion, Trackball, Nav, MajorNav,
	SysKeys, AppSwitch, FlipKeyboard, Permission, Rotation,
}

// String names the event type the way Monkey's verbose log does.
func (t EventType) String() string {
	switch t {
	case Touch:
		return "Touch"
	case Motion:
		return "Motion"
	case Trackball:
		return "Trackball"
	case Nav:
		return "Nav"
	case MajorNav:
		return "MajorNav"
	case SysKeys:
		return "SysKeys"
	case AppSwitch:
		return "AppSwitch"
	case FlipKeyboard:
		return "FlipKeyboard"
	case Permission:
		return "Permission"
	case Rotation:
		return "Rotation"
	default:
		return "Unknown"
	}
}

// Event is one generated UI event with its (stringly typed) arguments, the
// way they appear in the Monkey log and get replayed through adb.
type Event struct {
	Type EventType
	// Args are the event's textual arguments (coordinates, key codes,
	// permission strings, component names) in log order.
	Args []string
	// Intent is the am-style argument list when the event caused Monkey to
	// emit an intent (AppSwitch events and a share of others).
	Intent []string
}

// IsIntent reports whether the event carries an intent to replay via am.
func (e Event) IsIntent() bool { return len(e.Intent) > 0 }

// Config parameterizes a Monkey run.
type Config struct {
	Seed uint64
	// Events is the number of UI events to generate.
	Events int
}

// intentRatio is the probability an event also emits an intent line (app
// switches always do).
const intentRatio = 0.25

// Generator produces the event stream for one device's app population.
type Generator struct {
	cfg       Config
	r         *rng.Source
	launchers []string // flattened launcher components
	perms     []string
	generated *telemetry.Counter
}

// NewGenerator builds a generator against the device's installed apps.
func NewGenerator(dev *wearos.OS, cfg Config) *Generator {
	g := &Generator{cfg: cfg, r: rng.New(cfg.Seed).Split("monkey")}
	g.generated = dev.Telemetry().Counter("monkey_events_total")
	for _, p := range dev.Registry().Packages() {
		if l := p.Launcher(); l != nil {
			g.launchers = append(g.launchers, l.Name.FlattenToString())
		}
	}
	g.perms = dev.Permissions().List()
	return g
}

// sysKeys are the key codes of SysKeys events.
var sysKeys = []string{"KEYCODE_HOME", "KEYCODE_BACK", "KEYCODE_POWER", "KEYCODE_WAKEUP"}

// intentActions are the actions of the intents non-app-switch events emit.
var intentActions = []string{
	"android.intent.action.MAIN",
	"android.intent.action.VIEW",
	"android.intent.action.SEND",
}

// logBytesPerEvent pre-sizes Log's builder so a run's log takes one
// allocation: the emulator fleet's events average ~69 bytes of log (a
// ":Sending" line, and an intent line for a third of them).
const logBytesPerEvent = 72

// Log runs Monkey and returns its verbose log, the text QGJ-UI parses
// back (workflow step 6). Each event goes straight into the log as it is
// generated: its ":Sending" line, then an "// Sending intent: am" line when
// the event emitted an intent.
func (g *Generator) Log() string {
	var sb strings.Builder
	sb.Grow(64 + g.cfg.Events*logBytesPerEvent)
	sb.WriteString(":Monkey: seed=? count=")
	sb.WriteString(strconv.Itoa(g.cfg.Events))
	sb.WriteByte('\n')
	for i := 0; i < g.cfg.Events; i++ {
		g.writeEvent(&sb, AllEventTypes[i%len(AllEventTypes)]) // equal percentages
		g.generated.Inc()
	}
	sb.WriteString("// Monkey finished\n")
	return sb.String()
}

// writeEvent generates one event of type t and writes its log lines.
func (g *Generator) writeEvent(sb *strings.Builder, t EventType) {
	sb.WriteString(":Sending ")
	sb.WriteString(t.String())
	sb.WriteString(": ")
	var cmp, action string // the emitted intent's component and action
	switch t {
	case Touch, Motion:
		x := g.r.IntBetween(0, 319)
		y := g.r.IntBetween(0, 319)
		sb.WriteString("(ACTION_DOWN) ")
		writeCoord(sb, float64(x))
		sb.WriteByte(' ')
		writeCoord(sb, float64(y))
	case Trackball, Nav, MajorNav:
		sb.WriteString("(dx) ")
		writeCoord(sb, g.r.NormFloat64()*5)
		sb.WriteString(" (dy) ")
		writeCoord(sb, g.r.NormFloat64()*5)
	case SysKeys:
		sb.WriteString(rng.Pick(g.r, sysKeys))
	case AppSwitch:
		sb.WriteString("(to launcher)")
		if len(g.launchers) > 0 {
			cmp = rng.Pick(g.r, g.launchers)
		}
	case FlipKeyboard:
		sb.WriteString("(open)")
	case Permission:
		if len(g.perms) > 0 {
			sb.WriteString(rng.Pick(g.r, g.perms))
		} else {
			sb.WriteString("android.permission.INTERNET")
		}
	case Rotation:
		var buf [8]byte
		sb.WriteString("degree=")
		sb.Write(strconv.AppendInt(buf[:0], int64(g.r.Intn(4)*90), 10))
	}
	sb.WriteByte('\n')
	// A share of non-app-switch events also surfaces intents ("These UI
	// events may trigger monkey to generate some intents").
	if t != AppSwitch && len(g.launchers) > 0 && g.r.Bool(intentRatio) {
		cmp = rng.Pick(g.r, g.launchers)
		action = rng.Pick(g.r, intentActions)
	}
	if cmp == "" {
		return
	}
	sb.WriteString("    // Sending intent: am start -n ")
	sb.WriteString(cmp)
	if action != "" {
		sb.WriteString(" -a ")
		sb.WriteString(action)
	}
	sb.WriteByte('\n')
}

// writeCoord writes a coordinate with two decimals.
func writeCoord(sb *strings.Builder, v float64) {
	var buf [32]byte
	sb.Write(strconv.AppendFloat(buf[:0], v, 'f', 2, 64))
}

// Events walks a Monkey verbose log, yielding its events in log order
// until yield returns false. Unparseable lines are skipped, like QGJ-UI's
// tolerant log scraper, and an intent line belongs to the last event
// before it. Every event's Args and Intent reuse one slice each, and their
// strings are substrings of log: an event is valid until the next yield,
// so a caller that keeps one copies its slices.
func Events(log string) func(yield func(Event) bool) {
	return func(yield func(Event) bool) {
		var ev Event // the event being read; Type 0 until the first one
		var args, intent []string
		for rest := log; rest != ""; {
			var line string
			line, rest, _ = strings.Cut(rest, "\n")
			trimmed := strings.TrimSpace(line)
			switch {
			case strings.HasPrefix(trimmed, ":Sending "):
				name, a, ok := strings.Cut(strings.TrimPrefix(trimmed, ":Sending "), ": ")
				if !ok {
					continue
				}
				t, ok := eventTypeByName(name)
				if !ok {
					continue
				}
				if ev.Type != 0 && !yield(ev) {
					return
				}
				args = appendFields(args[:0], a)
				ev = Event{Type: t, Args: args}
			case strings.HasPrefix(trimmed, "// Sending intent: am "):
				if ev.Type == 0 {
					continue
				}
				intent = appendFields(intent[:0], strings.TrimPrefix(trimmed, "// Sending intent: am "))
				ev.Intent = intent
			}
		}
		if ev.Type != 0 {
			yield(ev)
		}
	}
}

// appendFields appends s's fields, as strings.Fields splits them, to dst.
func appendFields(dst []string, s string) []string {
	start := -1
	for i, r := range s {
		if unicode.IsSpace(r) {
			if start >= 0 {
				dst = append(dst, s[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		dst = append(dst, s[start:])
	}
	return dst
}

func eventTypeByName(name string) (EventType, bool) {
	for _, t := range AllEventTypes {
		if t.String() == name {
			return t, true
		}
	}
	return 0, false
}
