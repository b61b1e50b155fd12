// Package apps builds the synthetic application fleets the reproduction
// fuzzes: the 46 Android Wear apps of Table II, the 63 com.android.* phone
// apps of Section III-D, and the emulator fleet of the QGJ-UI experiment.
//
// Because the real APKs cannot execute outside Android, each component gets
// a *validation behaviour model*: a deterministic mapping from the kind of
// malformation an incoming intent carries to a reaction (ignore, reject
// with an exception, catch and log, crash, or hang). The mapping is sampled
// from per-population distributions whose constants (calibration.go) encode
// the paper's aggregate findings. Everything downstream — QGJ, logcat, the
// analyzer — is calibration-blind and measures outcomes through logs only,
// exactly as the paper does.
package apps

import (
	"strings"

	"repro/internal/intent"
)

// DefectKind is the behaviour model's view of what is wrong with an intent.
// It is recomputed from the intent's actual fields (the way a component's
// validation code would see them), not taken from generator metadata.
type DefectKind int

const (
	// KindNone: the intent is well formed and the action/data combination
	// is compatible.
	KindNone DefectKind = iota
	// KindMismatch: action and data are individually valid but the
	// combination is invalid (FIC A's signature defect).
	KindMismatch
	// KindMissingAction: no action (FIC B).
	KindMissingAction
	// KindMissingData: action present but no data URI (FIC B).
	KindMissingData
	// KindRandomAction: the action is not a registered action string (FIC C).
	KindRandomAction
	// KindRandomData: the data URI has an unknown scheme or failed to parse
	// (FIC C).
	KindRandomData
	// KindRandomExtras: extras with unexpected keys/values (FIC D).
	KindRandomExtras
	// KindNullExtra: at least one extra maps to an explicit null (FIC D).
	KindNullExtra
)

// AllDefectKinds lists the non-None kinds in priority order (highest first):
// the order a validation routine would trip over them.
var AllDefectKinds = []DefectKind{
	KindNullExtra, KindRandomExtras, KindRandomAction, KindRandomData,
	KindMissingAction, KindMissingData, KindMismatch,
}

// String names the kind for diagnostics.
func (k DefectKind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindMismatch:
		return "mismatch"
	case KindMissingAction:
		return "missing-action"
	case KindMissingData:
		return "missing-data"
	case KindRandomAction:
		return "random-action"
	case KindRandomData:
		return "random-data"
	case KindRandomExtras:
		return "random-extras"
	case KindNullExtra:
		return "null-extra"
	default:
		return "unknown"
	}
}

// expectedExtraPrefixes are key namespaces a component's own code plausibly
// reads; anything else is an unexpected extra.
var expectedExtraPrefixes = []string{
	"android.intent.extra.",
	"android.app.extra.",
	"com.google.android.wearable.extra.",
}

func extraKeyExpected(key string) bool {
	for _, p := range expectedExtraPrefixes {
		if strings.HasPrefix(key, p) {
			return true
		}
	}
	return false
}

// AnalyzeIntent derives the dominant defect of in from its actual fields,
// mirroring the order of checks a component's validation code performs.
// Only the highest-priority defect is returned: real validation code throws
// at the first check that fails.
func AnalyzeIntent(in *intent.Intent) DefectKind {
	// Extras are inspected first: unmarshalling the bundle happens before
	// the component looks at action/data, and a poisoned bundle trips
	// getExtra() calls immediately.
	if in.Extras.Len() > 0 {
		if in.Extras.HasNull() {
			return KindNullExtra
		}
		for i := range in.Extras.Len() {
			if k, _ := in.Extras.At(i); !extraKeyExpected(k) {
				return KindRandomExtras
			}
		}
	}
	hasAction := in.Action != ""
	hasData := !in.Data.IsZero()
	var spec intent.ActionSpec
	if hasAction {
		if spec = intent.LookupAction(in.Action); !spec.Known {
			return KindRandomAction
		}
	}
	if hasData && !intent.KnownScheme(in.Data.Scheme) {
		return KindRandomData
	}
	if !hasAction {
		return KindMissingAction
	}
	if !hasData {
		if spec.ExpectsData() {
			return KindMissingData
		}
		return KindNone // action legitimately takes no data
	}
	if !spec.AcceptsScheme(in.Data.Scheme) {
		return KindMismatch
	}
	return KindNone
}
