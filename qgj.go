// Package qgj is the public API of the Qui-Gon Jinn (QGJ) reproduction: a
// fuzz-testing study of Android Wear reliability (Barsallo Yi, Maji,
// Bagchi — DSN 2018) rebuilt as a pure-Go simulation.
//
// The package exposes four layers:
//
//   - Devices: boot simulated watches and emulators (NewWatch/NewEmulator)
//     and install app fleets on them.
//   - The QGJ tool: the intent fuzzer (Fuzzer, campaigns A-D of Table I)
//     and the QGJ-UI Monkey mutation fuzzer (UIFuzzer).
//   - Analysis: a logcat-driven Collector that classifies outcomes into the
//     paper's four manifestations and performs root-cause analysis.
//   - Studies: one-call reproductions of every table and figure in the
//     paper's evaluation (RunWearStudy, RunPhoneStudy, RunUIStudy, Render*).
//     A study is a farm run: StudyOptions is its farm configuration and
//     StudyResult the merged farm result. Set StudyOptions.Aging to an
//     aging model (PaperAging for the paper's) for the paper's design, one
//     watch aging across every app and campaign; left nil, each (campaign,
//     package) unit is an independent shard with crash triage. The
//     extension studies (RunAgingAblations, RunRejuvenationStudy) take
//     StudyOptions too and always age.
//
// Everything runs on a virtual clock: the paper's ~1.5M-intent study
// finishes in seconds, deterministically for a given seed.
package qgj

import (
	"repro/internal/adb"
	"repro/internal/analysis"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/farm"
	"repro/internal/manifest"
	"repro/internal/telemetry"
	"repro/internal/uifuzz"
	"repro/internal/wearos"
)

// Re-exported core types. The aliases keep the public API to one import
// while the implementation stays modular under internal/.
type (
	// OS is the simulated Android (Wear) operating system of a device.
	OS = wearos.OS
	// Fleet is a synthetic app population (Table II, phone, or emulator).
	Fleet = apps.Fleet
	// Campaign is one of the four Fuzz Intent Campaigns (Table I).
	Campaign = core.Campaign
	// GeneratorConfig scales and seeds intent generation.
	GeneratorConfig = core.GeneratorConfig
	// Fuzzer is the QGJ Fuzzer library bound to a device.
	Fuzzer = core.Injector
	// Summary is the per-app campaign summary QGJ reports.
	Summary = core.Summary
	// Collector is the streaming logcat analyzer.
	Collector = analysis.Collector
	// Report is the analyzer's aggregate outcome.
	Report = analysis.Report
	// Manifestation is the paper's four-level severity scale.
	Manifestation = analysis.Manifestation
	// Shell is an adb shell bound to a device.
	Shell = adb.Shell
	// UIFuzzer is QGJ-UI, the Monkey-based mutational fuzzer.
	UIFuzzer = uifuzz.Fuzzer
	// UIMode selects the QGJ-UI mutation strategy.
	UIMode = uifuzz.Mode
	// UIConfig parameterizes one QGJ-UI run.
	UIConfig = uifuzz.Config
	// UIOutcome is one QGJ-UI experiment result (a Table V row).
	UIOutcome = uifuzz.Outcome
	// StudyResult is a complete campaign study (wear or phone).
	StudyResult = farm.Result
	// UIStudyResult is the complete QGJ-UI study (both modes).
	UIStudyResult = experiments.UIResult
	// StudyOptions configures RunWearStudy / RunPhoneStudy.
	StudyOptions = farm.Config
	// AgingConfig is the system-server aging model (StudyOptions.Aging).
	AgingConfig = wearos.AgingConfig
	// UIStudyOptions configures RunUIStudy.
	UIStudyOptions = experiments.UIOptions
)

// Campaigns.
const (
	CampaignA = core.CampaignA
	CampaignB = core.CampaignB
	CampaignC = core.CampaignC
	CampaignD = core.CampaignD
)

// UI mutation modes.
const (
	SemiValid = uifuzz.SemiValid
	Random    = uifuzz.Random
)

// Manifestations, least to most severe.
const (
	NoEffect     = analysis.ManifestNoEffect
	Unresponsive = analysis.ManifestUnresponsive
	Crash        = analysis.ManifestCrash
	Reboot       = analysis.ManifestReboot
)

// NewWatch boots a simulated Android Wear 2.0 watch (the study's Moto 360).
func NewWatch() *OS { return wearos.New(wearos.DefaultWatchConfig()) }

// NewEmulator boots the Android Watch emulator used by QGJ-UI.
func NewEmulator() *OS { return wearos.New(wearos.DefaultEmulatorConfig()) }

// BuildWearFleet constructs the paper's 46-app wearable population
// (Table II) for the given seed.
func BuildWearFleet(seed uint64) *Fleet { return apps.BuildWearFleet(seed) }

// BuildPhoneFleet constructs the 63-app com.android.* phone population.
func BuildPhoneFleet(seed uint64) *Fleet { return apps.BuildPhoneFleet(seed) }

// BuildEmulatorFleet constructs the QGJ-UI emulator population (built-ins
// plus top-20 third-party apps).
func BuildEmulatorFleet(seed uint64) *Fleet { return apps.BuildEmulatorFleet(seed) }

// NewFuzzer returns the QGJ Fuzzer library bound to a device's OS.
func NewFuzzer(os *OS, cfg GeneratorConfig) *Fuzzer {
	return &core.Injector{Dev: os, Cfg: cfg}
}

// NewCollector returns a streaming logcat analyzer; subscribe it with
// os.Logcat().Subscribe(c.Sink()) or feed it a pulled dump via c.ConsumeAll.
func NewCollector() *Collector { return analysis.NewCollector() }

// NewShell opens an adb shell on a device's OS.
func NewShell(os *OS) *Shell { return adb.NewShell(os) }

// NewUIFuzzer returns QGJ-UI bound to a device's OS.
func NewUIFuzzer(os *OS) *UIFuzzer { return uifuzz.New(os) }

// RunWearStudy reproduces the full QGJ-Master study on the wearable
// (Tables I-III, Figures 2-4).
func RunWearStudy(opts StudyOptions) (*StudyResult, error) {
	return experiments.RunWearStudy(opts)
}

// RunPhoneStudy reproduces the Android-phone comparison (Table IV).
func RunPhoneStudy(opts StudyOptions) (*StudyResult, error) {
	return experiments.RunPhoneStudy(opts)
}

// RunUIStudy reproduces the QGJ-UI experiment (Table V).
func RunUIStudy(opts UIStudyOptions) (*UIStudyResult, error) {
	return experiments.RunUIStudy(opts)
}

// PaperAging returns the paper's aging model for StudyOptions.Aging.
func PaperAging() *AgingConfig { return farm.PaperAging() }

// QuickGen returns a scaled-down generator configuration (~1/k² of campaign
// A's full volume) for demos and tests.
func QuickGen(k int) GeneratorConfig { return experiments.QuickGen(k) }

// HealthFitness and NotHealthFitness re-export the app categories;
// BuiltIn/ThirdParty the origins.
const (
	HealthFitness    = manifest.HealthFitness
	NotHealthFitness = manifest.NotHealthFitness
	BuiltIn          = manifest.BuiltIn
	ThirdParty       = manifest.ThirdParty
)

// --- Telemetry surface ---------------------------------------------------------

// Telemetry aliases. Every device carries a metric registry
// (os.Telemetry()) unless booted with wearos.Config.DisableTelemetry; see
// docs/observability.md.
type (
	// Telemetry is a device's metric registry (counters, gauges, histograms).
	Telemetry = telemetry.Registry
	// TelemetrySnapshot is the expvar-style JSON view of a registry.
	TelemetrySnapshot = telemetry.Snapshot
	// TelemetryServer is a live exposition HTTP server.
	TelemetryServer = telemetry.Server
)

// ServeTelemetry exposes reg (Prometheus text + JSON + pprof) on addr.
// Close the returned server when done.
func ServeTelemetry(addr string, reg *Telemetry) (*TelemetryServer, error) {
	return telemetry.Serve(addr, reg)
}

// --- Extension surface ---------------------------------------------------------

// RunRejuvenationStudy runs the Section IV-E mitigation counterfactual.
func RunRejuvenationStudy(opts StudyOptions) (experiments.RejuvenationStudy, error) {
	return experiments.RunRejuvenationStudy(opts)
}

// RunAgingAblations runs the aging-model design-choice ablations.
func RunAgingAblations(opts StudyOptions) ([]experiments.AgingAblation, error) {
	return experiments.RunAgingAblations(opts)
}

// RunLegacyPhoneStudy runs the JJB-era historical baseline study.
func RunLegacyPhoneStudy(opts StudyOptions) (*StudyResult, error) {
	return experiments.RunLegacyPhoneStudy(opts)
}
