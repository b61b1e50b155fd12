package intent

// Action/data compatibility. FIC A's defining defect is a *semantically
// invalid combination* of an individually valid action and an individually
// valid data URI ("Valid Action and valid Data URI are generated
// separately, but the combination of them may be invalid", Table I). This
// table records which schemes each data-taking action legitimately
// operates on; it is shared by the fuzzer (to pick valid pairs for FIC D)
// and by the app behaviour models (to detect mismatches the way a
// component's validation code would).
var actionSchemes = map[string][]string{
	"android.intent.action.VIEW":                  {"http", "https", "content", "file", "geo", "market", "tel"},
	"android.intent.action.EDIT":                  {"content"},
	"android.intent.action.PICK":                  {"content"},
	"android.intent.action.GET_CONTENT":           {"content"},
	"android.intent.action.INSERT":                {"content"},
	"android.intent.action.INSERT_OR_EDIT":        {"content"},
	"android.intent.action.DELETE":                {"content", "file"},
	"android.intent.action.ATTACH_DATA":           {"content", "file"},
	"android.intent.action.DIAL":                  {"tel"},
	"android.intent.action.CALL":                  {"tel"},
	"android.intent.action.SENDTO":                {"mailto", "sms", "smsto"},
	"android.intent.action.SEND":                  {"content", "file", "mailto"},
	"android.intent.action.SEND_MULTIPLE":         {"content", "file"},
	"android.intent.action.WEB_SEARCH":            {"http", "https"},
	"android.intent.action.INSTALL_PACKAGE":       {"content", "file", "market"},
	"android.intent.action.UNINSTALL_PACKAGE":     {"market", "content"},
	"android.intent.action.VIEW_DOWNLOADS":        {"content", "file"},
	"android.intent.action.RUN":                   {"file"},
	"android.media.action.MEDIA_PLAY_FROM_SEARCH": {"content", "http", "https"},
	"android.intent.action.MUSIC_PLAYER":          {"content", "file", "http"},
	"android.intent.action.NEW_OUTGOING_CALL":     {"tel"},
	// ALL_APPS on Wear carries a complication-provider reference; the
	// paper's Google Fit crash is this action arriving without it.
	"android.intent.action.ALL_APPS": {"content"},
	"vnd.google.fitness.TRACK":       {"content"},
	"vnd.google.fitness.VIEW":        {"content"},
	"vnd.google.fitness.VIEW_GOAL":   {"content"},
}

// ActionAcceptsScheme reports whether the action can legitimately carry
// data with the given scheme (ActionSpec.AcceptsScheme).
func ActionAcceptsScheme(action, scheme string) bool {
	return actionSpecs[action].AcceptsScheme(scheme)
}

// ActionExpectsData reports whether the action has any data expectation.
func ActionExpectsData(action string) bool { return actionSpecs[action].ExpectsData() }

// KnownScheme reports whether s is one of the fuzzer's 12 configured data
// URI schemes.
func KnownScheme(s string) bool {
	for _, sc := range Schemes {
		if sc == s {
			return true
		}
	}
	return false
}
