package intent

// Action catalogs. Section III-B: "The fuzzer has over 100 different Actions
// and 12 types of data URI configured. Combinations of these are used in the
// intents generated during various FICs."
//
// The catalog below contains 104 actions split into ordinary activity/
// broadcast actions and protected (privileged) actions. Protected actions
// reproduce the paper's dominant observation: intents reserved for the OS
// (e.g. ACTION_BATTERY_LOW) raise a SecurityException when sent by an
// unprivileged app and account for ~81% of all exceptions observed.

// Activity-style actions (deliverable by ordinary apps).
var ActivityActions = []string{
	"android.intent.action.MAIN",
	"android.intent.action.VIEW",
	"android.intent.action.EDIT",
	"android.intent.action.DIAL",
	"android.intent.action.CALL_BUTTON",
	"android.intent.action.PICK",
	"android.intent.action.PICK_ACTIVITY",
	"android.intent.action.CHOOSER",
	"android.intent.action.GET_CONTENT",
	"android.intent.action.ATTACH_DATA",
	"android.intent.action.INSERT",
	"android.intent.action.INSERT_OR_EDIT",
	"android.intent.action.DELETE",
	"android.intent.action.RUN",
	"android.intent.action.SYNC",
	"android.intent.action.SEND",
	"android.intent.action.SENDTO",
	"android.intent.action.SEND_MULTIPLE",
	"android.intent.action.ANSWER",
	"android.intent.action.SEARCH",
	"android.intent.action.WEB_SEARCH",
	"android.intent.action.ASSIST",
	"android.intent.action.VOICE_COMMAND",
	"android.intent.action.SET_WALLPAPER",
	"android.intent.action.CREATE_SHORTCUT",
	"android.intent.action.CREATE_DOCUMENT",
	"android.intent.action.OPEN_DOCUMENT",
	"android.intent.action.OPEN_DOCUMENT_TREE",
	"android.intent.action.PROCESS_TEXT",
	"android.intent.action.QUICK_VIEW",
	"android.intent.action.SHOW_APP_INFO",
	"android.intent.action.TRANSLATE",
	"android.intent.action.DEFINE",
	"android.intent.action.MANAGE_NETWORK_USAGE",
	"android.intent.action.POWER_USAGE_SUMMARY",
	"android.intent.action.APPLICATION_PREFERENCES",
	"android.intent.action.PASTE",
	"android.intent.action.SYSTEM_TUTORIAL",
	"android.media.action.IMAGE_CAPTURE",
	"android.media.action.VIDEO_CAPTURE",
	"android.media.action.MEDIA_PLAY_FROM_SEARCH",
	"android.media.action.DISPLAY_AUDIO_EFFECT_CONTROL_PANEL",
	"android.settings.SETTINGS",
	"android.settings.BLUETOOTH_SETTINGS",
	"android.settings.WIFI_SETTINGS",
	"android.settings.DISPLAY_SETTINGS",
	"android.settings.SOUND_SETTINGS",
	"android.settings.DATE_SETTINGS",
	"android.settings.LOCALE_SETTINGS",
	"android.settings.APPLICATION_DETAILS_SETTINGS",
	"com.google.android.wearable.action.STOPWATCH",
	"com.google.android.wearable.action.SET_TIMER",
	"com.google.android.wearable.action.SHOW_ALARMS",
	"com.google.android.clockwork.settings.ACTION_AMBIENT",
	"vnd.google.fitness.TRACK",
	"vnd.google.fitness.VIEW",
	"vnd.google.fitness.VIEW_GOAL",
	"android.intent.action.ALL_APPS",
	"android.intent.action.BUG_REPORT",
	"android.intent.action.CALL",
	"android.intent.action.EVENT_REMINDER",
	"android.intent.action.FACTORY_TEST",
	"android.intent.action.INSTALL_PACKAGE",
	"android.intent.action.UNINSTALL_PACKAGE",
	"android.intent.action.MANAGE_APP_PERMISSIONS",
	"android.intent.action.MUSIC_PLAYER",
	"android.intent.action.SEARCH_LONG_PRESS",
	"android.intent.action.VIEW_DOWNLOADS",
	"android.intent.action.VIEW_PERMISSION_USAGE",
	"android.intent.action.SHOW_WORK_APPS",
}

// BroadcastActions includes both ordinary and protected broadcast actions.
// The protected subset can only legitimately originate from system
// processes; delivery attempts from an unprivileged UID raise a
// SecurityException in the dispatcher.
var BroadcastActions = []string{
	"android.intent.action.AIRPLANE_MODE",
	"android.intent.action.BATTERY_CHANGED",
	"android.intent.action.BATTERY_LOW",
	"android.intent.action.BATTERY_OKAY",
	"android.intent.action.BOOT_COMPLETED",
	"android.intent.action.LOCKED_BOOT_COMPLETED",
	"android.intent.action.ACTION_POWER_CONNECTED",
	"android.intent.action.ACTION_POWER_DISCONNECTED",
	"android.intent.action.ACTION_SHUTDOWN",
	"android.intent.action.REBOOT",
	"android.intent.action.DEVICE_STORAGE_LOW",
	"android.intent.action.DEVICE_STORAGE_OK",
	"android.intent.action.CONFIGURATION_CHANGED",
	"android.intent.action.LOCALE_CHANGED",
	"android.intent.action.TIMEZONE_CHANGED",
	"android.intent.action.TIME_SET",
	"android.intent.action.TIME_TICK",
	"android.intent.action.DATE_CHANGED",
	"android.intent.action.SCREEN_ON",
	"android.intent.action.SCREEN_OFF",
	"android.intent.action.USER_PRESENT",
	"android.intent.action.DREAMING_STARTED",
	"android.intent.action.DREAMING_STOPPED",
	"android.intent.action.PACKAGE_ADDED",
	"android.intent.action.PACKAGE_REMOVED",
	"android.intent.action.PACKAGE_REPLACED",
	"android.intent.action.PACKAGE_FIRST_LAUNCH",
	"android.intent.action.PACKAGES_SUSPENDED",
	"android.intent.action.UID_REMOVED",
	"android.intent.action.MY_PACKAGE_REPLACED",
	"android.intent.action.NEW_OUTGOING_CALL",
	"android.net.conn.CONNECTIVITY_CHANGE",
	"android.bluetooth.adapter.action.STATE_CHANGED",
	"android.hardware.action.NEW_PICTURE",
}

// protectedActions is the subset of BroadcastActions that only the system
// may send (AOSP's "protected-broadcast" list, abridged to the actions the
// catalog carries).
var protectedActions = []string{
	"android.intent.action.AIRPLANE_MODE",
	"android.intent.action.BATTERY_CHANGED",
	"android.intent.action.BATTERY_LOW",
	"android.intent.action.BATTERY_OKAY",
	"android.intent.action.BOOT_COMPLETED",
	"android.intent.action.LOCKED_BOOT_COMPLETED",
	"android.intent.action.ACTION_POWER_CONNECTED",
	"android.intent.action.ACTION_POWER_DISCONNECTED",
	"android.intent.action.ACTION_SHUTDOWN",
	"android.intent.action.REBOOT",
	"android.intent.action.DEVICE_STORAGE_LOW",
	"android.intent.action.DEVICE_STORAGE_OK",
	"android.intent.action.CONFIGURATION_CHANGED",
	"android.intent.action.LOCALE_CHANGED",
	"android.intent.action.TIMEZONE_CHANGED",
	"android.intent.action.TIME_SET",
	"android.intent.action.TIME_TICK",
	"android.intent.action.DATE_CHANGED",
	"android.intent.action.SCREEN_ON",
	"android.intent.action.SCREEN_OFF",
	"android.intent.action.USER_PRESENT",
	"android.intent.action.DREAMING_STARTED",
	"android.intent.action.DREAMING_STOPPED",
	"android.intent.action.PACKAGE_ADDED",
	"android.intent.action.PACKAGE_REMOVED",
	"android.intent.action.PACKAGE_REPLACED",
	"android.intent.action.PACKAGE_FIRST_LAUNCH",
	"android.intent.action.PACKAGES_SUSPENDED",
	"android.intent.action.UID_REMOVED",
	"android.intent.action.MY_PACKAGE_REPLACED",
	"android.hardware.action.NEW_PICTURE",
}

// Actions is the full fuzzing catalog: activity actions plus broadcast
// actions (104 entries, satisfying the paper's "over 100").
var Actions = buildActions()

func buildActions() []string {
	out := make([]string, 0, len(ActivityActions)+len(BroadcastActions))
	out = append(out, ActivityActions...)
	out = append(out, BroadcastActions...)
	return out
}

// ActionSpec is everything the catalog knows about one action, so a caller
// on the per-intent path looks an action up once instead of once per
// question.
type ActionSpec struct {
	// Known marks a catalog action (Actions).
	Known bool
	// Protected marks an action only privileged OS processes may send.
	Protected bool
	// Schemes are the data schemes the action legitimately operates on
	// (actionSchemes); nil when it takes no data.
	Schemes []string
}

// ExpectsData reports whether the action has any data expectation.
func (s ActionSpec) ExpectsData() bool { return s.Schemes != nil }

// AcceptsScheme reports whether the action can legitimately carry data
// with the given scheme. Actions without a data expectation accept only
// "no data", so any scheme is a mismatch for them.
func (s ActionSpec) AcceptsScheme(scheme string) bool {
	for _, sc := range s.Schemes {
		if sc == scheme {
			return true
		}
	}
	return false
}

// actionSpecs indexes every action the catalog tables name.
var actionSpecs = func() map[string]ActionSpec {
	m := make(map[string]ActionSpec, len(Actions))
	for _, a := range Actions {
		s := m[a]
		s.Known = true
		m[a] = s
	}
	for _, a := range protectedActions {
		s := m[a]
		s.Protected = true
		m[a] = s
	}
	for a, ss := range actionSchemes {
		s := m[a]
		s.Schemes = ss
		m[a] = s
	}
	return m
}()

// LookupAction returns the catalog's spec of action (the zero spec for an
// action the catalog does not name).
func LookupAction(action string) ActionSpec { return actionSpecs[action] }

// IsProtected reports whether action may only be sent by privileged OS
// processes. Sending a protected action from an ordinary app raises a
// SecurityException, the paper's dominant exception class (81.3%).
func IsProtected(action string) bool { return actionSpecs[action].Protected }

// KnownAction reports whether action is registered in the catalog; the adb
// `pm`-style strict validation and the dispatcher's "no such action" path
// use this.
func KnownAction(action string) bool { return actionSpecs[action].Known }

// Common intent categories.
const (
	CategoryDefault   = "android.intent.category.DEFAULT"
	CategoryLauncher  = "android.intent.category.LAUNCHER"
	CategoryBrowsable = "android.intent.category.BROWSABLE"
	CategoryHome      = "android.intent.category.HOME"
)

// MIME types the generator can attach to the Type field.
var MimeTypes = []string{
	"text/plain", "text/html", "image/png", "image/jpeg",
	"audio/mpeg", "video/mp4", "application/json",
	"application/vnd.android.package-archive",
	"vnd.android.cursor.item/contact", "*/*",
}
