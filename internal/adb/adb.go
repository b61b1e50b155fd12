// Package adb simulates the Android Debug Bridge shell utilities QGJ-UI
// injects through: am (ActivityManager), pm (PackageManager) and input.
// Section IV-D's findings hinge on these tools' input validation —
// am silently normalizes a missing action/category to MAIN/LAUNCHER, pm
// rejects permission strings that are not registered on the device, and
// input parses coordinates strictly — so the sanitization behaviour here
// is load-bearing for Table V.
package adb

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/intent"
	"repro/internal/telemetry"
	"repro/internal/wearos"
)

// Shell is an adb shell session bound to one device.
type Shell struct {
	dev *wearos.OS
	// cmds counts executed commands per tool (nil when device telemetry is
	// off). Unknown tools share the "other" label to bound cardinality.
	cmds map[string]*telemetry.Counter
}

// NewShell opens a shell on the device.
func NewShell(dev *wearos.OS) *Shell {
	s := &Shell{dev: dev}
	if reg := dev.Telemetry(); reg != nil {
		s.cmds = make(map[string]*telemetry.Counter)
		for _, tool := range []string{"am", "pm", "input", "other"} {
			s.cmds[tool] = reg.Counter("adb_commands_total", telemetry.L("tool", tool))
		}
	}
	return s
}

// Result is the outcome of one shell command.
type Result struct {
	// output is what the utility printed, or for an am command that
	// dispatched an intent, the text before the intent's description.
	output string
	// ExitCode is the process exit status (0 = success).
	ExitCode int
	// Delivery is set when the command dispatched an intent.
	Delivery wearos.DeliveryResult
	// SentIntent is the intent the command dispatched, if any.
	SentIntent *intent.Intent
}

// Output is what the utility printed. An am command that dispatched an
// intent prints the intent's description, rendered here on demand.
func (r Result) Output() string {
	if r.SentIntent != nil {
		return r.output + r.SentIntent.String()
	}
	return r.output
}

// Run parses and executes one shell command line.
func (s *Shell) Run(cmdline string) Result {
	fields := tokenize(cmdline)
	if len(fields) == 0 {
		return Result{}
	}
	if s.cmds != nil {
		c := s.cmds[fields[0]]
		if c == nil {
			c = s.cmds["other"]
		}
		c.Inc()
	}
	switch fields[0] {
	case "am":
		return s.runAM(fields[1:])
	case "pm":
		return s.runPM(fields[1:])
	case "input":
		return s.runInput(fields[1:])
	default:
		return Result{
			output:   fmt.Sprintf("/system/bin/sh: %s: not found", fields[0]),
			ExitCode: 127,
		}
	}
}

// tokenize splits a command line on spaces, honoring single and double
// quotes (adb shell passes through a POSIX-ish shell). A line with no quote
// and no byte outside ASCII splits into substrings of s; any other line
// takes tokenizeRunes.
func tokenize(s string) []string {
	n := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '\'' || c == '"' || c >= utf8.RuneSelf {
			return tokenizeRunes(s)
		}
		if c != ' ' && (i == 0 || s[i-1] == ' ') {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	for s != "" {
		var tok string
		tok, s, _ = strings.Cut(s, " ")
		if tok != "" {
			out = append(out, tok)
		}
	}
	return out
}

// tokenizeRunes is the quoting tokenizer: it copies each token rune by
// rune, dropping the quotes, so invalid UTF-8 comes out as U+FFFD.
func tokenizeRunes(s string) []string {
	var out []string
	var cur strings.Builder
	inSingle, inDouble := false, false
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	for _, r := range s {
		switch {
		case r == '\'' && !inDouble:
			inSingle = !inSingle
		case r == '"' && !inSingle:
			inDouble = !inDouble
		case r == ' ' && !inSingle && !inDouble:
			flush()
		default:
			cur.WriteRune(r)
		}
	}
	flush()
	return out
}

// runAM implements `am start`, `am startservice`, and `am start-activity`.
func (s *Shell) runAM(args []string) Result {
	if len(args) == 0 {
		return Result{output: amUsage, ExitCode: 1}
	}
	var service bool
	switch args[0] {
	case "start", "start-activity":
	case "startservice", "start-service":
		service = true
	default:
		return Result{output: "Error: unknown command: " + args[0], ExitCode: 1}
	}

	in := &intent.Intent{SenderUID: wearos.UIDShell}
	var parseErr string
	i := 1
	for i < len(args) {
		arg := args[i]
		next := func() (string, bool) {
			if i+1 >= len(args) {
				parseErr = "Error: option " + arg + " requires an argument"
				return "", false
			}
			i++
			return args[i], true
		}
		switch arg {
		case "-n":
			v, ok := next()
			if !ok {
				break
			}
			cn, ok := intent.UnflattenComponent(v)
			if !ok {
				parseErr = "Error: invalid component name: " + v
				break
			}
			in.Component = cn
		case "-a":
			v, ok := next()
			if !ok {
				break
			}
			// am does NOT validate action strings: "the am utility would
			// forward the string 'S0me.r@ndom.$trinG' as an action string
			// to a component and relies on the correctness of input
			// validation at the component" (Section IV-D).
			in.Action = v
		case "-d":
			v, ok := next()
			if !ok {
				break
			}
			u, ok := intent.ParseURI(v)
			if !ok {
				parseErr = "Error: Invalid URI: " + v
				break
			}
			in.Data = u
		case "-c":
			v, ok := next()
			if !ok {
				break
			}
			in.AddCategory(v)
		case "-t":
			v, ok := next()
			if !ok {
				break
			}
			in.Type = v
		case "--es":
			k, ok := next()
			if !ok {
				break
			}
			v, ok := next()
			if !ok {
				break
			}
			in.PutExtra(k, intent.StringValue(v))
		case "--ei":
			k, ok := next()
			if !ok {
				break
			}
			v, ok := next()
			if !ok {
				break
			}
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				parseErr = "Error: Invalid int value: " + v
				break
			}
			in.PutExtra(k, intent.IntValue(n))
		case "--ef":
			k, ok := next()
			if !ok {
				break
			}
			v, ok := next()
			if !ok {
				break
			}
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				parseErr = "Error: Invalid float value: " + v
				break
			}
			in.PutExtra(k, intent.FloatValue(f))
		case "--ez":
			k, ok := next()
			if !ok {
				break
			}
			v, ok := next()
			if !ok {
				break
			}
			b, err := strconv.ParseBool(v)
			if err != nil {
				parseErr = "Error: Invalid boolean value: " + v
				break
			}
			in.PutExtra(k, intent.BoolValue(b))
		case "--esn":
			k, ok := next()
			if !ok {
				break
			}
			in.PutExtra(k, intent.NullValue())
		default:
			parseErr = "Error: Unknown option: " + arg
		}
		if parseErr != "" {
			return Result{output: parseErr, ExitCode: 1}
		}
		i++
	}

	if in.Component.IsZero() && in.Action == "" {
		return Result{output: "Error: Intent has no component and no action", ExitCode: 1}
	}

	// The sanitization the paper highlights: launching without an action or
	// category makes am fill in MAIN/LAUNCHER ("am automatically sets the
	// action and category values as {act=action.MAIN cat=category.LAUNCHER}").
	if !service && in.Action == "" && len(in.Categories) == 0 {
		in.Action = "android.intent.action.MAIN"
		in.AddCategory(intent.CategoryLauncher)
	}

	var res wearos.DeliveryResult
	if service {
		res = s.dev.StartService(in)
	} else {
		res = s.dev.StartActivity(in)
	}
	out := Result{Delivery: res, SentIntent: in}
	switch res {
	case wearos.BlockedNotFound:
		out.output = "Error: Activity not started, unable to resolve Intent "
		out.ExitCode = 1
	case wearos.BlockedSecurity:
		out.output = "java.lang.SecurityException: Permission Denial: starting Intent "
		out.ExitCode = 1
	default:
		out.output = "Starting: Intent "
	}
	return out
}

// amUsage shows -n as required: the device resolves only explicit intents,
// so an intent without a component is never delivered.
const amUsage = "usage: am [start|startservice] -n COMPONENT [-a ACTION] [-d DATA] ..."

// runPM implements the pm subcommands QGJ-UI exercises: grant/revoke and
// list permissions. pm is strict: "if the pm utility is asked to send a
// random permission string ... it rejects the input string saying that no
// such permission exists" (Section IV-D).
func (s *Shell) runPM(args []string) Result {
	if len(args) == 0 {
		return Result{output: "usage: pm [grant|revoke|list] ...", ExitCode: 1}
	}
	switch args[0] {
	case "grant", "revoke":
		if len(args) < 3 {
			return Result{output: "Error: usage: pm " + args[0] + " PACKAGE PERMISSION", ExitCode: 1}
		}
		pkg, perm := args[1], args[2]
		if s.dev.Registry().Package(pkg) == nil {
			return Result{output: "Error: Unknown package: " + pkg, ExitCode: 1}
		}
		if !s.dev.Permissions().Known(perm) {
			return Result{
				output:   "Error: Unknown permission: " + perm,
				ExitCode: 1,
			}
		}
		return Result{}
	case "list":
		if len(args) > 1 && args[1] == "permissions" {
			return Result{output: strings.Join(s.dev.Permissions().List(), "\n")}
		}
		var names []string
		for _, p := range s.dev.Registry().Packages() {
			names = append(names, "package:"+p.Name)
		}
		return Result{output: strings.Join(names, "\n")}
	default:
		return Result{output: "Error: unknown command: " + args[0], ExitCode: 1}
	}
}

// Watch screen bounds for coordinate validation (a 320x320 round Wear
// display).
const (
	screenW = 320
	screenH = 320
)

// runInput implements `input tap|swipe|text|keyevent`. The input utility
// has "robust input validation and sanitization routines": coordinates
// must parse as floats; out-of-screen coordinates are clamped rather than
// forwarded (the paper's example random event `input tap -8803.85 4668.17`
// does not crash anything).
func (s *Shell) runInput(args []string) Result {
	if len(args) == 0 {
		return Result{output: inputUsage, ExitCode: 1}
	}
	switch args[0] {
	case "tap":
		if len(args) != 3 {
			return Result{output: "Error: tap requires exactly 2 coordinates", ExitCode: 1}
		}
		if _, _, ok := parseXY(args[1], args[2]); !ok {
			return Result{output: "Error: invalid coordinates: " + args[1] + " " + args[2], ExitCode: 1}
		}
		// Clamped in-bounds tap: absorbed by the window manager.
		return Result{}
	case "swipe":
		if len(args) != 5 && len(args) != 6 {
			return Result{output: "Error: swipe requires 4 coordinates", ExitCode: 1}
		}
		if _, _, ok := parseXY(args[1], args[2]); !ok {
			return Result{output: "Error: invalid coordinates", ExitCode: 1}
		}
		if _, _, ok := parseXY(args[3], args[4]); !ok {
			return Result{output: "Error: invalid coordinates", ExitCode: 1}
		}
		return Result{}
	case "text":
		if len(args) < 2 {
			return Result{output: "Error: text requires an argument", ExitCode: 1}
		}
		return Result{}
	case "keyevent":
		if len(args) != 2 {
			return Result{output: "Error: keyevent requires a key code", ExitCode: 1}
		}
		if _, err := strconv.Atoi(args[1]); err != nil {
			// Key names like KEYCODE_HOME are also accepted.
			if !strings.HasPrefix(args[1], "KEYCODE_") {
				return Result{output: "Error: invalid key code: " + args[1], ExitCode: 1}
			}
		}
		return Result{}
	default:
		return Result{output: "Error: unknown input source: " + args[0], ExitCode: 1}
	}
}

const inputUsage = "usage: input [tap|swipe|text|keyevent] ..."

// parseXY validates a coordinate pair, clamping into the screen like the
// input dispatcher does.
func parseXY(xs, ys string) (x, y float64, ok bool) {
	x, errX := strconv.ParseFloat(xs, 64)
	y, errY := strconv.ParseFloat(ys, 64)
	if errX != nil || errY != nil {
		return 0, 0, false
	}
	x = clamp(x, 0, screenW-1)
	y = clamp(y, 0, screenH-1)
	return x, y, true
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
