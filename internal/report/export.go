package report

import (
	"fmt"

	"repro/internal/experiments"
	"repro/internal/farm"
	"repro/internal/telemetry"
)

// JSON export of the study artifacts, for downstream tooling (plotting,
// regression dashboards). The schema is stable: field names are part of
// the contract and covered by tests.

// StudyExport is the serialized form of one campaign study.
type StudyExport struct {
	Fleet     string              `json:"fleet"`
	Seed      uint64              `json:"seed"`
	Sent      int                 `json:"intentsSent"`
	Reboots   int                 `json:"reboots"`
	Campaigns []CampaignExport    `json:"campaigns"`
	Combined  CombinedExport      `json:"combined"`
	TableIII  []TableIIIExportRow `json:"tableIII"`
	TableIV   []TableIVExportRow  `json:"tableIV"`
	Fig3a     map[string]int      `json:"fig3a"`
	Fig4      map[string]float64  `json:"fig4CrashAppRate"`
	Reboot    []string            `json:"rebootComponents"`
	// Telemetry embeds an aging study's device registry snapshot at export
	// time, so a run artifact carries its own instrumentation (counters,
	// gauges, histogram quantiles) next to the paper tables. That registry
	// is the farm.Config.Telemetry the study metered into when one was set
	// (so it spans every study sharing it), else the device's own; shard
	// plans have no device and export none.
	Telemetry *telemetry.Snapshot `json:"telemetry,omitempty"`
	// Triage lists deduplicated crash signatures (shard plans only; an
	// aging study never triages).
	Triage *TriageExport `json:"triage,omitempty"`
	// FaultResilience is the graded fault-injection table (FIC F runs only):
	// one row per (fault kind, app) with a graceful-degradation score.
	FaultResilience []FaultResilienceExportRow `json:"faultResilience,omitempty"`
}

// FaultResilienceExportRow serializes one fault-resilience row.
type FaultResilienceExportRow struct {
	Fault            string  `json:"fault"`
	App              string  `json:"app"`
	Windows          int     `json:"windows"`
	Degraded         int     `json:"degradedRecovered,omitempty"`
	Stalls           int     `json:"stalls,omitempty"`
	SilentDrops      int     `json:"silentDrops,omitempty"`
	FailedRecoveries int     `json:"failedRecoveries,omitempty"`
	Score            float64 `json:"score"`
}

// TriageExport is the deduplicated failure roll-up.
type TriageExport struct {
	RawCrashes int                  `json:"rawCrashes"`
	RawANRs    int                  `json:"rawANRs,omitempty"`
	RawFaults  int                  `json:"rawFaultVerdicts,omitempty"`
	Unique     int                  `json:"uniqueSignatures"`
	Buckets    []TriageBucketExport `json:"buckets"`
}

// TriageBucketExport is one unique failure signature.
type TriageBucketExport struct {
	Hash string `json:"hash"`
	// Kind distinguishes crash buckets from ANR buckets; empty means crash
	// (the historical default).
	Kind  string `json:"kind,omitempty"`
	Count int    `json:"count"`
	Class string `json:"class"`
	Frame string `json:"frame,omitempty"`
	// Exemplar is the first crashing intent observed for this bucket;
	// Minimized is its greedy reduction. Both render via intent.String.
	Exemplar   string `json:"exemplar,omitempty"`
	Minimized  string `json:"minimized,omitempty"`
	Reproduced bool   `json:"reproduced"`
	Trials     int    `json:"minimizerTrials,omitempty"`
	// Trace and Flight are the flight-recorder forensics attached to the
	// bucket's exemplar: the campaign/package trace ID and the window of
	// structured events that ended at the failure.
	Trace  string            `json:"trace,omitempty"`
	Flight []telemetry.Event `json:"flight,omitempty"`
}

// CampaignExport summarizes one campaign.
type CampaignExport struct {
	Campaign string `json:"campaign"`
	Sent     int    `json:"sent"`
	Crashes  int    `json:"crashEvents"`
	ANRs     int    `json:"anrEvents"`
	Security int    `json:"securityEvents"`
	Reboots  int    `json:"reboots"`
}

// CombinedExport carries the merged figures' raw series.
type CombinedExport struct {
	SecurityShare float64            `json:"securityShare"`
	Uncaught      []ClassCountExport `json:"uncaughtClasses"`
	CrashClasses  []ClassCountExport `json:"crashClasses"`
}

// ClassCountExport is one (class, count) pair.
type ClassCountExport struct {
	Class string `json:"class"`
	Count int    `json:"count"`
}

// TableIIIExportRow serializes one Table III row.
type TableIIIExportRow struct {
	Campaign string  `json:"campaign"`
	Category string  `json:"category"`
	Reboot   float64 `json:"reboot"`
	Crash    float64 `json:"crash"`
	Hang     float64 `json:"hang"`
	NoEffect float64 `json:"noEffect"`
}

// TableIVExportRow serializes one Table IV row.
type TableIVExportRow struct {
	Class   string  `json:"class"`
	Crashes int     `json:"crashes"`
	Share   float64 `json:"share"`
}

// ExportStudy converts a study result into its export form. It carries the
// scientific outputs only, never how the run executed (worker count,
// checkpoint, resumed shards), so equal plans export equal bytes.
func ExportStudy(res *farm.Result, seed uint64) StudyExport {
	out := StudyExport{
		Fleet:   res.Fleet.Kind.String(),
		Seed:    seed,
		Sent:    res.Sent,
		Reboots: res.Reboots(),
		Fig3a:   map[string]int{},
		Fig4:    map[string]float64{},
	}
	if res.Device != nil {
		if reg := res.Device.Telemetry(); reg != nil {
			snap := reg.Snapshot()
			out.Telemetry = &snap
		}
	}
	if res.Triage != nil {
		out.Triage = &TriageExport{
			RawCrashes: res.Triage.Crashes,
			RawANRs:    res.Triage.ANRs,
			RawFaults:  res.Triage.Faults,
			Unique:     res.Triage.Unique(),
		}
		for _, b := range res.Triage.Buckets {
			be := TriageBucketExport{
				Hash:       fmt.Sprintf("%016x", b.Hash),
				Kind:       b.Kind,
				Count:      b.Count,
				Class:      b.Class,
				Frame:      b.Frame,
				Reproduced: b.Reproduced,
				Trials:     b.Trials,
			}
			if b.Exemplar != nil {
				be.Trace = b.Exemplar.Trace
				be.Flight = b.Exemplar.Flight
			}
			if b.Exemplar != nil && b.Exemplar.Intent != nil {
				be.Exemplar = b.Exemplar.Intent.String()
			}
			if b.Minimized != nil {
				be.Minimized = b.Minimized.String()
			}
			out.Triage.Buckets = append(out.Triage.Buckets, be)
		}
	}
	for _, c := range res.Campaigns {
		out.Campaigns = append(out.Campaigns, CampaignExport{
			Campaign: c.Campaign.Letter(),
			Sent:     c.Sent,
			Crashes:  c.Report.CrashEvents,
			ANRs:     c.Report.ANREvents,
			Security: c.Report.SecurityEvents,
			Reboots:  len(c.Report.RebootTimes),
		})
	}
	out.Combined.SecurityShare = res.Combined.SecurityShare()
	for _, cc := range res.Combined.UncaughtClassDistribution(false) {
		out.Combined.Uncaught = append(out.Combined.Uncaught,
			ClassCountExport{Class: string(cc.Class), Count: cc.Count})
	}
	for _, cc := range res.Combined.CrashClassTotals() {
		out.Combined.CrashClasses = append(out.Combined.CrashClasses,
			ClassCountExport{Class: string(cc.Class), Count: cc.Count})
	}
	for _, row := range experiments.TableIII(res) {
		out.TableIII = append(out.TableIII,
			TableIIIExportRow{
				Campaign: row.Campaign.Letter(), Category: "Health/Fitness",
				Reboot: row.Health.Reboot, Crash: row.Health.Crash,
				Hang: row.Health.Hang, NoEffect: row.Health.NoEffect,
			},
			TableIIIExportRow{
				Campaign: row.Campaign.Letter(), Category: "Not Health/Fitness",
				Reboot: row.NotHealth.Reboot, Crash: row.NotHealth.Crash,
				Hang: row.NotHealth.Hang, NoEffect: row.NotHealth.NoEffect,
			})
	}
	rows, others, _ := experiments.TableIV(res)
	for _, r := range rows {
		out.TableIV = append(out.TableIV,
			TableIVExportRow{Class: string(r.Class), Crashes: r.Crashes, Share: r.Share})
	}
	if others.Crashes > 0 {
		out.TableIV = append(out.TableIV,
			TableIVExportRow{Class: "Others", Crashes: others.Crashes, Share: others.Share})
	}
	for m, n := range experiments.Fig3a(res) {
		out.Fig3a[m.String()] = n
	}
	for origin, rate := range experiments.Fig4(res).CrashAppRate {
		out.Fig4[origin.String()] = rate
	}
	for _, cn := range experiments.RebootComponents(res) {
		out.Reboot = append(out.Reboot, cn.FlattenToString())
	}
	for _, r := range experiments.FaultResilienceFromTriage(res.Triage) {
		out.FaultResilience = append(out.FaultResilience, FaultResilienceExportRow{
			Fault: r.Fault, App: r.App, Windows: r.Windows,
			Degraded: r.Degraded, Stalls: r.Stalls,
			SilentDrops: r.SilentDrops, FailedRecoveries: r.FailedRecoveries,
			Score: r.Score,
		})
	}
	return out
}

// UIExport serializes a QGJ-UI study.
type UIExport struct {
	Rows []UIExportRow `json:"rows"`
}

// UIExportRow is one Table V row: an experiments.TableVRow with JSON names.
type UIExportRow struct {
	Experiment     string  `json:"experiment"`
	InjectedEvents int     `json:"injectedEvents"`
	Exceptions     int     `json:"exceptionsRaised"`
	ExceptionRate  float64 `json:"exceptionRate"`
	Crashes        int     `json:"crashes"`
	CrashRate      float64 `json:"crashRate"`
	SystemCrashes  int     `json:"systemCrashes"`
}

// ExportUI converts a UI study into its export form.
func ExportUI(res *experiments.UIResult) UIExport {
	var exp UIExport
	for _, r := range experiments.TableV(res) {
		exp.Rows = append(exp.Rows, UIExportRow(r))
	}
	return exp
}
