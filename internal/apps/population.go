package apps

import (
	"fmt"

	"repro/internal/intent"
	"repro/internal/manifest"
	"repro/internal/rng"
)

// appSpec names one synthetic app and its population slot.
type appSpec struct {
	pkg      string
	category manifest.AppCategory
	origin   manifest.Origin
	// usesSensorManager wires the health-app substrate dependency
	// (Section III-C).
	usesSensorManager bool
}

// Table II populations. Component totals per block:
//
//	Health/Fitness   Built-in     2 apps,  81 activities,  34 services
//	Health/Fitness   Third Party 11 apps,  80 activities,  59 services
//	Not Health/Fit.  Built-in     9 apps, 168 activities, 188 services
//	Not Health/Fit.  Third Party 24 apps, 185 activities, 117 services
//	Total                        46 apps, 514 activities, 398 services
type populationBlock struct {
	specs      []appSpec
	activities int
	services   int
}

func wearPopulation() []populationBlock {
	hb := manifest.HealthFitness
	nh := manifest.NotHealthFitness
	bi := manifest.BuiltIn
	tp := manifest.ThirdParty
	return []populationBlock{
		{
			activities: 81, services: 34,
			specs: []appSpec{
				{pkg: "com.google.android.apps.fitness", category: hb, origin: bi},
				{pkg: "com.motorola.omni", category: hb, origin: bi, usesSensorManager: true},
			},
		},
		{
			activities: 80, services: 59,
			specs: []appSpec{
				{pkg: "com.runtastic.wear", category: hb, origin: tp},
				{pkg: "com.strava.wear", category: hb, origin: tp},
				{pkg: "com.fitbit.wear", category: hb, origin: tp},
				{pkg: "com.endomondo.wear", category: hb, origin: tp},
				{pkg: "com.myfitnesspal.wear", category: hb, origin: tp},
				{pkg: "com.nike.runclub.wear", category: hb, origin: tp},
				{pkg: "com.sevenmins.wear", category: hb, origin: tp},
				{pkg: "com.sleepcycle.wear", category: hb, origin: tp},
				{pkg: "com.heartwatch.wear", category: hb, origin: tp},
				{pkg: "com.pedometer.stepcounter.wear", category: hb, origin: tp},
				{pkg: "com.fitify.workouts.wear", category: hb, origin: tp},
			},
		},
		{
			activities: 168, services: 188,
			specs: []appSpec{
				{pkg: "com.google.android.wearable.app", category: nh, origin: bi},
				{pkg: "com.google.android.deskclock", category: nh, origin: bi},
				{pkg: "com.google.android.apps.messaging", category: nh, origin: bi},
				{pkg: "com.google.android.gm", category: nh, origin: bi},
				{pkg: "com.google.android.calendar", category: nh, origin: bi},
				{pkg: "com.google.android.apps.maps", category: nh, origin: bi},
				{pkg: "com.google.android.music", category: nh, origin: bi},
				{pkg: "com.google.android.googlequicksearchbox", category: nh, origin: bi},
				{pkg: "com.google.android.wearable.watchfaces", category: nh, origin: bi},
			},
		},
		{
			activities: 185, services: 117,
			specs: []appSpec{
				{pkg: "org.telegram.wear", category: nh, origin: tp},
				{pkg: "com.whatsapp.wear", category: nh, origin: tp},
				{pkg: "com.spotify.wear", category: nh, origin: tp},
				{pkg: "com.ubercab.wear", category: nh, origin: tp},
				{pkg: "com.lyft.wear", category: nh, origin: tp},
				{pkg: "com.facebook.orca.wear", category: nh, origin: tp},
				{pkg: "com.twitter.wear", category: nh, origin: tp},
				{pkg: "com.instagram.wear", category: nh, origin: tp},
				{pkg: "com.shazam.wear", category: nh, origin: tp},
				{pkg: "com.evernote.wear", category: nh, origin: tp},
				{pkg: "com.todoist.wear", category: nh, origin: tp},
				{pkg: "com.citymapper.wear", category: nh, origin: tp},
				{pkg: "com.accuweather.wear", category: nh, origin: tp},
				{pkg: "com.wunderground.wear", category: nh, origin: tp},
				{pkg: "com.ifttt.wear", category: nh, origin: tp},
				{pkg: "com.duolingo.wear", category: nh, origin: tp},
				{pkg: "com.foursquare.wear", category: nh, origin: tp},
				{pkg: "com.glide.wear", category: nh, origin: tp},
				{pkg: "com.robinhood.wear", category: nh, origin: tp},
				{pkg: "com.paypal.wear", category: nh, origin: tp},
				{pkg: "com.banjo.wear", category: nh, origin: tp},
				{pkg: "com.flipboard.wear", category: nh, origin: tp},
				{pkg: "com.pocketcasts.wear", category: nh, origin: tp},
				{pkg: "com.wearfacesplus", category: nh, origin: tp},
			},
		},
	}
}

// phonePopulation builds the Nexus 6 comparison fleet: 63 com.android.*
// apps with 595 Activities and 218 Services (Section III-D).
func phonePopulation() []populationBlock {
	named := []string{
		"chrome", "vending", "settings", "systemui", "phone", "contacts",
		"mms", "email", "calendar", "deskclock", "calculator", "camera2",
		"gallery3d", "music", "documentsui", "downloads", "keychain",
		"launcher3", "nfc", "printspooler", "providers.calendar",
		"providers.contacts", "providers.downloads", "providers.media",
		"providers.settings", "providers.telephony", "bluetooth",
		"certinstaller", "packageinstaller", "externalstorage",
		"inputmethod.latin", "managedprovisioning", "proxyhandler",
		"sharedstoragebackup", "shell", "statementservice", "stk",
		"wallpaper.livepicker", "wallpapercropper", "webview", "dialer",
		"carrierconfig", "cellbroadcastreceiver", "captiveportallogin",
		"backupconfirm", "defcontainer", "dreams.basic", "emergency",
		"facelock", "hotspot2", "htmlviewer", "inputdevices",
		"location.fused", "mtp", "musicfx", "onetimeinitializer",
		"pacprocessor", "providers.blockednumber", "providers.userdictionary",
		"server.telecom", "soundrecorder", "theme", "vpndialogs",
	}
	specs := make([]appSpec, 0, len(named))
	for _, n := range named {
		specs = append(specs, appSpec{
			pkg:      "com.android." + n,
			category: manifest.NotHealthFitness,
			origin:   manifest.BuiltIn,
		})
	}
	return []populationBlock{{specs: specs, activities: 595, services: 218}}
}

// splitCounts distributes total across n slots as evenly as possible,
// deterministically (earlier slots get the remainder).
func splitCounts(total, n int) []int {
	out := make([]int, n)
	if n == 0 {
		return out
	}
	base, rem := total/n, total%n
	for i := range out {
		out[i] = base
		if i < rem {
			out[i]++
		}
	}
	return out
}

// componentClassNames generates plausible Android class names.
var activityNames = []string{
	"MainActivity", "SettingsActivity", "DetailActivity", "OnboardingActivity",
	"LoginActivity", "ProfileActivity", "HistoryActivity", "ShareActivity",
	"SearchActivity", "NotificationActivity", "PickerActivity", "PairActivity",
	"SummaryActivity", "GoalActivity", "WorkoutActivity", "MapActivity",
	"EditActivity", "AboutActivity", "HelpActivity", "PermissionActivity",
	"ComplicationConfigActivity", "WatchFaceConfigActivity", "SyncActivity",
	"AlarmActivity", "TimerActivity", "StopwatchActivity", "MediaActivity",
	"BrowserActivity", "ComposeActivity", "CallActivity", "ContactsActivity",
	"GalleryActivity", "PlayerActivity", "QueueActivity", "StatsActivity",
	"TrendsActivity", "SessionActivity", "RouteActivity", "BadgeActivity",
	"ChallengeActivity", "FriendActivity", "FeedActivity", "InboxActivity",
	"VoiceActivity", "TutorialActivity", "WidgetConfigActivity",
}

var serviceNames = []string{
	"SyncService", "NotificationListenerService", "DataLayerListenerService",
	"ComplicationProviderService", "WatchFaceService", "TrackingService",
	"UploadService", "DownloadService", "MessagingService", "LocationService",
	"SensorListenerService", "HeartRateService", "StepCounterService",
	"MediaPlaybackService", "AlarmService", "TileProviderService",
	"WearableListenerService", "BackupService", "AnalyticsService",
	"GeofenceService", "VoiceCommandService", "JobService", "FetchService",
	"ChannelService", "AmbientUpdateService", "BootService", "WidgetService",
	"CacheService", "AuthService", "TokenRefreshService", "PushService",
	"ExportService", "ImportService", "CleanupService", "SessionService",
}

// buildPackages materializes a population into manifest packages with
// deterministic component name assignment and synthetic download counts.
func buildPackages(blocks []populationBlock, seed *rng.Source) []*manifest.Package {
	var out []*manifest.Package
	for _, blk := range blocks {
		actPer := splitCounts(blk.activities, len(blk.specs))
		svcPer := splitCounts(blk.services, len(blk.specs))
		for i, spec := range blk.specs {
			r := seed.Split("pkg:" + spec.pkg)
			pkg := &manifest.Package{
				Name:              spec.pkg,
				Category:          spec.category,
				Origin:            spec.origin,
				UsesSensorManager: spec.usesSensorManager,
			}
			if spec.origin == manifest.ThirdParty {
				// Selection criterion: >1M downloads (Section III-C).
				pkg.Downloads = int64(1_000_000 + r.Intn(49_000_000))
			}
			for a := 0; a < actPer[i]; a++ {
				name := activityNames[a%len(activityNames)]
				if a >= len(activityNames) {
					name = fmt.Sprintf("%s%d", name, a/len(activityNames)+1)
				}
				comp := &manifest.Component{
					Name:     intent.ComponentName{Package: spec.pkg, Class: spec.pkg + ".ui." + name},
					Type:     manifest.Activity,
					Exported: true,
				}
				if a == 0 {
					comp.MainLauncher = true
				}
				// A small share of components is unexported or permission
				// guarded, like real manifests; these produce the
				// "specified and secure" SecurityException path.
				switch {
				case a > 0 && r.Bool(0.06):
					comp.Exported = false
				case a > 0 && r.Bool(0.04):
					comp.Permission = rng.Pick(r, manifest.StandardPermissions)
				}
				pkg.Components = append(pkg.Components, comp)
			}
			for s := 0; s < svcPer[i]; s++ {
				name := serviceNames[s%len(serviceNames)]
				if s >= len(serviceNames) {
					name = fmt.Sprintf("%s%d", name, s/len(serviceNames)+1)
				}
				comp := &manifest.Component{
					Name:     intent.ComponentName{Package: spec.pkg, Class: spec.pkg + ".svc." + name},
					Type:     manifest.Service,
					Exported: true,
				}
				switch {
				case r.Bool(0.06):
					comp.Exported = false
				case r.Bool(0.04):
					comp.Permission = rng.Pick(r, manifest.StandardPermissions)
				}
				pkg.Components = append(pkg.Components, comp)
			}
			out = append(out, pkg)
		}
	}
	return out
}
