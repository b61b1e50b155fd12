package apps

import (
	"time"

	"repro/internal/intent"
	"repro/internal/javalang"
	"repro/internal/manifest"
	"repro/internal/rng"
	"repro/internal/wearos"
)

// reactionKind is what a component does when it sees a given defect.
type reactionKind int

const (
	reactIgnore reactionKind = iota // graceful: no visible effect
	reactReject                     // throw back to the caller, no crash
	reactCatch                      // catch and log inside the app
	reactCrash                      // uncaught exception, FATAL EXCEPTION
	reactHang                       // wedge the main looper past the ANR bar
)

// reaction is one (possibly stochastic) response entry.
type reaction struct {
	kind  reactionKind
	class javalang.Class
	busy  time.Duration
	// prob < 1 makes the reaction fire stochastically per delivery (used by
	// launcher components during UI fuzzing); 0 means always fire.
	prob float64
	// onlyActions / onlyScheme gate the reaction to specific intent
	// contents (scenario overrides: the paper's escalation chains fire on
	// particular malformed intents, not on every intent of a kind).
	onlyActions []string
	onlyScheme  string
}

// matches reports whether the reaction's content gates admit the intent.
func (r reaction) matches(in *intent.Intent) bool {
	if len(r.onlyActions) > 0 {
		ok := false
		for _, a := range r.onlyActions {
			if in.Action == a {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if r.onlyScheme != "" && in.Data.Scheme != r.onlyScheme {
		return false
	}
	return true
}

// behavior is the full validation model of one component.
type behavior struct {
	name      intent.ComponentName
	reactions map[DefectKind]reaction
	// draw is the component's private random stream, used only for
	// stochastic reactions; deterministic per fleet seed.
	draw *rng.Source
	// drawInit is draw's position right after sampling; FleetTemplate.Reset
	// rewinds the stream here so a reused fleet replays the same per-delivery
	// draws a freshly instantiated one would.
	drawInit uint64
}

// stackFor fabricates a plausible Java stack for an exception escaping the
// component; the analyzer only needs the top frames to look right. Every
// crash of one component shares it.
func stackFor(cn intent.ComponentName, kind manifest.ComponentType) []javalang.Frame {
	entry := "onCreate"
	file := "Activity.java"
	if kind == manifest.Service {
		entry = "onStartCommand"
		file = "Service.java"
	}
	simple := cn.Class
	if i := lastDot(simple); i >= 0 {
		simple = simple[i+1:]
	}
	return []javalang.Frame{
		{Class: cn.Class, Method: entry, File: simple + ".java", Line: 40 + len(simple)},
		{Class: "android.app.ActivityThread", Method: "performLaunchActivity", File: file, Line: 2817},
		{Class: "android.os.Handler", Method: "dispatchMessage", File: "Handler.java", Line: 102},
		{Class: "android.os.Looper", Method: "loop", File: "Looper.java", Line: 154},
	}
}

func lastDot(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '.' {
			return i
		}
	}
	return -1
}

// message fabricates a defect-appropriate exception message; building one
// allocates at most its string.
func message(class javalang.Class, kind DefectKind, in *intent.Intent) string {
	switch class {
	case javalang.ClassNullPointer:
		return "Attempt to invoke virtual method on a null object reference"
	case javalang.ClassIllegalArgument:
		return withIntent("Unexpected value in intent ", in)
	case javalang.ClassIllegalState:
		return "Fragment host has been destroyed; cannot handle " + kind.String()
	case javalang.ClassClassNotFound:
		return "Didn't find class referenced by intent extra on path: DexPathList"
	case javalang.ClassClassCast:
		return "java.lang.String cannot be cast to android.os.Parcelable"
	case javalang.ClassArithmetic:
		return "divide by zero"
	case javalang.ClassActivityNotFound:
		return withIntent("No Activity found to handle ", in)
	case javalang.ClassNumberFormat:
		return "For input string: \"" + in.Data.Opaque + "\""
	case javalang.ClassBadParcelable:
		return "Parcelable protocol requires a CREATOR object"
	case javalang.ClassUnsupportedOperation:
		return "Operation not supported for action " + in.Action
	default:
		return "error while processing intent"
	}
}

// withIntent returns prefix followed by the intent's text.
func withIntent(prefix string, in *intent.Intent) string {
	var buf [192]byte
	return string(in.AppendText(append(buf[:0], prefix...)))
}

// handler adapts the behaviour model to the OS Handler signature.
func (b *behavior) handler(compType manifest.ComponentType) wearos.Handler {
	var stack []javalang.Frame // built on the component's first crash
	return func(in *intent.Intent) wearos.Outcome {
		kind := AnalyzeIntent(in)
		if kind == KindNone {
			return wearos.Outcome{}
		}
		r, ok := b.reactions[kind]
		if !ok {
			return wearos.Outcome{}
		}
		if !r.matches(in) {
			return wearos.Outcome{}
		}
		if r.prob > 0 && !b.draw.Bool(r.prob) {
			return wearos.Outcome{}
		}
		switch r.kind {
		case reactIgnore:
			return wearos.Outcome{}
		case reactReject:
			return wearos.Outcome{
				Thrown:   javalang.New(r.class, message(r.class, kind, in)),
				Rejected: true,
			}
		case reactCatch:
			return wearos.Outcome{
				Thrown: javalang.New(r.class, message(r.class, kind, in)),
				Caught: true,
			}
		case reactCrash:
			if stack == nil {
				stack = stackFor(b.name, compType)
			}
			thr := javalang.New(r.class, message(r.class, kind, in)).WithStack(stack...)
			return wearos.Outcome{Thrown: thr}
		case reactHang:
			var thr *javalang.Throwable
			if r.class != "" {
				thr = javalang.New(r.class, message(r.class, kind, in))
			}
			return wearos.Outcome{Thrown: thr, BusyFor: r.busy}
		default:
			return wearos.Outcome{}
		}
	}
}

// sampleBehavior draws a component's reaction table from the population
// parameters. crashy marks components of quota-selected crashy apps.
func sampleBehavior(cn intent.ComponentName, p *populationParams, crashy bool, r *rng.Source) *behavior {
	b := &behavior{
		name:      cn,
		reactions: make(map[DefectKind]reaction),
		draw:      r.Split("draw"),
	}
	b.drawInit = b.draw.State()
	for _, kind := range AllDefectKinds {
		switch {
		case crashy && r.Bool(p.crashKindProb[kind]):
			mix := p.crashMix[kind]
			b.reactions[kind] = reaction{
				kind:  reactCrash,
				class: mix.classes[r.WeightedIndex(mix.weights)],
			}
		case r.Bool(p.rejectKindProb):
			mix := p.rejectMix[kind]
			b.reactions[kind] = reaction{
				kind:  reactReject,
				class: mix.classes[r.WeightedIndex(mix.weights)],
			}
		case r.Bool(p.catchKindProb):
			mix := p.rejectMix[kind]
			b.reactions[kind] = reaction{
				kind:  reactCatch,
				class: mix.classes[r.WeightedIndex(mix.weights)],
			}
		}
	}
	return b
}

// uiBehavior builds the launcher-activity profile used by the QGJ-UI
// experiment: per-delivery stochastic reactions keyed on the mutation style
// visible in the intent (semi-valid mutations arrive as mismatch/missing
// kinds; random mutations as random-action/random-data kinds).
func uiBehavior(cn intent.ComponentName, r *rng.Source) *behavior {
	b := &behavior{
		name:      cn,
		reactions: make(map[DefectKind]reaction),
		draw:      r.Split("ui-draw"),
	}
	b.drawInit = b.draw.State()
	semiValidKinds := []DefectKind{KindMismatch, KindMissingAction, KindMissingData, KindRandomExtras, KindNullExtra}
	for _, kind := range semiValidKinds {
		// Crash and reject compete; crash is drawn first with its tiny
		// probability by giving the reject entry the remaining mass.
		if r.Bool(0.30) { // not every launcher validates every path
			continue
		}
		b.reactions[kind] = reaction{
			kind:  reactCatch,
			class: uiExceptionMix.classes[r.WeightedIndex(uiExceptionMix.weights)],
			prob:  uiIntentExceptionProbSemiValid,
		}
	}
	// A couple of launchers carry a genuine crash path for semi-valid
	// mutations (Table V: 22 crashes of 41,405 semi-valid events).
	if r.Bool(0.5) {
		b.reactions[KindMismatch] = reaction{
			kind:  reactCrash,
			class: uiCrashMix.classes[r.WeightedIndex(uiCrashMix.weights)],
			prob:  uiIntentCrashProbSemiValid,
		}
	}
	for _, kind := range []DefectKind{KindRandomAction, KindRandomData} {
		b.reactions[kind] = reaction{
			kind:  reactCatch,
			class: uiExceptionMix.classes[r.WeightedIndex(uiExceptionMix.weights)],
			prob:  uiIntentExceptionProbRandom,
		}
	}
	return b
}
