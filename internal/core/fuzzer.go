package core

import (
	"fmt"
	"time"

	"repro/internal/intent"
	"repro/internal/manifest"
	"repro/internal/telemetry"
	"repro/internal/wearos"
)

// QGJUID is the (unprivileged) UID the QGJ Wear app runs under; the tool
// deliberately needs no root or system privileges (Section III-A).
const QGJUID = wearos.UIDAppBase + 100

// Pacing constants from Section III-D: "we insert two delays: (a) 100 ms
// between successive intents similar to JJB; and (b) 250 ms after every 100
// intents. It was empirically determined ... that these delays were
// required to ensure the device is not overloaded."
const (
	InterIntentDelay = 100 * time.Millisecond
	BatchPause       = 250 * time.Millisecond
	BatchSize        = 100
)

// injSampleEvery is the 1-in-N sampling rate for the qgj_injection_seconds
// latency histogram (power of two; the first injection of every component
// run is always sampled). Counters are never sampled.
const injSampleEvery = 16

// Injector is the Fuzzer library: it generates campaign intents and injects
// them into components on the target device, pacing the device's virtual
// clock the way the real tool paces wall-clock time.
type Injector struct {
	Dev *wearos.OS
	Cfg GeneratorConfig
	// SenderUID defaults to QGJUID when zero.
	SenderUID int
	// Progress, when non-nil, receives a callback after every injection
	// (UI feedback in the QGJ apps; cheap counters in the experiments).
	Progress func(sent int)
	// Observe, when non-nil, receives every injected intent together with
	// its delivery result, after the delivery settled. The farm's triage
	// pipeline uses it to pair crashing intents with the FATAL EXCEPTION
	// block they produced. The intent must be treated as read-only; clone it
	// to retain it beyond the callback.
	Observe func(in *intent.Intent, res wearos.DeliveryResult)

	// mets caches resolved metric handles per campaign. A registry lookup
	// sorts and renders labels — cheap per scrape, far too hot per component
	// run at farm scale (hundreds of runs per app sweep).
	mets map[Campaign]*campaignMetrics
}

// campaignMetrics is the per-campaign set of resolved metric handles.
type campaignMetrics struct {
	generated   *telemetry.Counter
	injSecs     *telemetry.Histogram
	progress    *telemetry.Gauge
	compsFuzzed *telemetry.Counter
	// byResult is indexed by DeliveryResult (values start at 1); entries
	// are resolved lazily as result kinds first appear.
	byResult [wearos.DeviceRebooted + 1]*telemetry.Counter
}

// metrics resolves (once) the campaign's metric handles; nil when the
// device runs without telemetry.
func (inj *Injector) metrics(c Campaign) *campaignMetrics {
	tel := inj.Dev.Telemetry()
	if tel == nil {
		return nil
	}
	if m := inj.mets[c]; m != nil {
		return m
	}
	campaign := telemetry.L("campaign", c.Letter())
	m := &campaignMetrics{
		generated:   tel.Counter("qgj_intents_generated_total", campaign),
		injSecs:     tel.Histogram("qgj_injection_seconds", telemetry.DefLatencyBuckets, campaign),
		progress:    tel.Gauge("qgj_component_progress"),
		compsFuzzed: tel.Counter("qgj_components_fuzzed_total"),
	}
	if inj.mets == nil {
		inj.mets = make(map[Campaign]*campaignMetrics, len(AllCampaigns))
	}
	inj.mets[c] = m
	return m
}

// ComponentRun summarizes the injections against one component.
type ComponentRun struct {
	Component intent.ComponentName
	Type      manifest.ComponentType
	Campaign  Campaign
	Sent      int
	Results   map[wearos.DeliveryResult]int
}

// Rebooted reports whether any injection in this run rebooted the device.
func (cr ComponentRun) Rebooted() bool { return cr.Results[wearos.DeviceRebooted] > 0 }

// AppRun summarizes one campaign against one application.
type AppRun struct {
	Package    string
	Campaign   Campaign
	Sent       int
	Components []ComponentRun
}

// Results aggregates delivery results over all components.
func (ar AppRun) Results() map[wearos.DeliveryResult]int {
	out := make(map[wearos.DeliveryResult]int, 8)
	for _, cr := range ar.Components {
		for k, v := range cr.Results {
			out[k] += v
		}
	}
	return out
}

func (inj *Injector) uid() int {
	if inj.SenderUID != 0 {
		return inj.SenderUID
	}
	return QGJUID
}

// FuzzComponent runs one campaign against one component.
func (inj *Injector) FuzzComponent(c Campaign, comp *manifest.Component) ComponentRun {
	run := ComponentRun{
		Component: comp.Name,
		Type:      comp.Type,
		Campaign:  c,
		Results:   make(map[wearos.DeliveryResult]int, 8),
	}
	clock := inj.Dev.Clock()

	// Metric handles come from the per-campaign cache. The per-intent
	// counters (generated, injected-by-result) are not touched per intent at
	// all: run.Sent and run.Results already tally them exactly, and the
	// registry atomics are settled once at the end of the run — the
	// granularity at which the exposition endpoint's exactness is specified.
	// Only the sampled latency histogram and the progress gauge remain on
	// the per-intent path.
	m := inj.metrics(c)
	var (
		injSecs  *telemetry.Histogram
		progress *telemetry.Gauge
	)
	if m != nil {
		injSecs = m.injSecs
		progress = m.progress
	}
	// The flight recorder sees every generated intent before it is sent;
	// comp.Flat() is cached on the component, so the per-intent record is a
	// slot write of existing strings.
	rec := inj.Dev.FlightRecorder()
	flat := ""
	if rec != nil {
		flat = comp.Flat()
	}

	c.Generate(comp.Name, inj.Cfg, inj.uid(), func(in *intent.Intent) {
		rec.Record(telemetry.EventIntent, flat, in.Action, "")
		// Latency is sampled 1-in-injSampleEvery: two wall-clock reads per
		// intent are the single most expensive instruction in this callback,
		// and the histogram only needs a representative population, not a
		// census. Counters stay exact.
		timed := injSecs != nil && run.Sent&(injSampleEvery-1) == 0
		var start time.Time
		if timed {
			start = time.Now()
		}
		var res wearos.DeliveryResult
		if comp.Type == manifest.Service {
			res = inj.Dev.StartService(in)
		} else {
			res = inj.Dev.StartActivity(in)
		}
		if timed {
			injSecs.Observe(time.Since(start).Seconds())
		}
		run.Results[res]++
		run.Sent++
		if inj.Observe != nil {
			inj.Observe(in, res)
		}
		clock.Advance(InterIntentDelay)
		if run.Sent%BatchSize == 0 {
			progress.Set(float64(run.Sent))
			clock.Advance(BatchPause)
		}
		if inj.Progress != nil {
			inj.Progress(run.Sent)
		}
	})
	progress.Set(float64(run.Sent))
	if m != nil {
		m.generated.Add(uint64(run.Sent))
		for res, n := range run.Results {
			rc := m.byResult[res]
			if rc == nil {
				rc = inj.Dev.Telemetry().Counter("qgj_intents_injected_total",
					telemetry.L("campaign", c.Letter()), telemetry.L("result", res.String()))
				m.byResult[res] = rc
			}
			rc.Add(uint64(n))
		}
		m.compsFuzzed.Inc()
	}
	// Batched device counters (dispatch results, logcat appends) become
	// exact at every component-run boundary.
	inj.Dev.FlushTelemetry()
	return run
}

// FuzzApp runs one campaign against every Activity and Service of the
// package, in manifest order — the granularity at which the paper's
// workflow operates ("we choose a particular wearable application ... and
// begin the experiments").
func (inj *Injector) FuzzApp(c Campaign, pkg *manifest.Package) AppRun {
	run := AppRun{Package: pkg.Name, Campaign: c}
	// One trace per (campaign, app): the flight recorder's window and every
	// event in it carry this ID, which is also the farm's shard key — the
	// thread that links a triage bucket back to the campaign that hit it.
	if rec := inj.Dev.FlightRecorder(); rec != nil {
		rec.BeginTrace(c.Letter() + "/" + pkg.Name)
	}
	for _, comp := range pkg.Components {
		if comp.Type != manifest.Activity && comp.Type != manifest.Service {
			continue
		}
		cr := inj.FuzzComponent(c, comp)
		run.Sent += cr.Sent
		run.Components = append(run.Components, cr)
	}
	inj.Dev.Telemetry().Counter("qgj_apps_fuzzed_total").Inc()
	return run
}

// FuzzAppAllCampaigns executes all four campaigns back to back against one
// app ("All 4 campaigns are executed one after another", Section III-D).
func (inj *Injector) FuzzAppAllCampaigns(pkg *manifest.Package) []AppRun {
	out := make([]AppRun, 0, len(AllCampaigns))
	for _, c := range AllCampaigns {
		out = append(out, inj.FuzzApp(c, pkg))
	}
	return out
}

// Summary is the compact result view the QGJ Wear app sends back to the
// phone over the MessageAPI.
type Summary struct {
	Package   string `json:"package"`
	Campaign  string `json:"campaign"`
	Sent      int    `json:"sent"`
	NoEffect  int    `json:"noEffect"`
	Handled   int    `json:"handled"`
	Rejected  int    `json:"rejected"`
	Crashes   int    `json:"crashes"`
	ANRs      int    `json:"anrs"`
	Security  int    `json:"security"`
	NotFound  int    `json:"notFound"`
	Reboots   int    `json:"reboots"`
	BootCount int    `json:"bootCount"`
}

// Summarize converts an AppRun into the wire summary.
func Summarize(ar AppRun, bootCount int) Summary {
	res := ar.Results()
	return Summary{
		Package:   ar.Package,
		Campaign:  ar.Campaign.Letter(),
		Sent:      ar.Sent,
		NoEffect:  res[wearos.DeliveredNoEffect],
		Handled:   res[wearos.DeliveredHandledException],
		Rejected:  res[wearos.DeliveredRejected],
		Crashes:   res[wearos.DeliveredCrash],
		ANRs:      res[wearos.DeliveredANR],
		Security:  res[wearos.BlockedSecurity],
		NotFound:  res[wearos.BlockedNotFound],
		Reboots:   res[wearos.DeviceRebooted],
		BootCount: bootCount,
	}
}

// String renders the summary for the QGJ Mobile UI.
func (s Summary) String() string {
	return fmt.Sprintf(
		"%s campaign %s: sent=%d noEffect=%d handled=%d rejected=%d crash=%d anr=%d security=%d notFound=%d reboot=%d",
		s.Package, s.Campaign, s.Sent, s.NoEffect, s.Handled, s.Rejected,
		s.Crashes, s.ANRs, s.Security, s.NotFound, s.Reboots)
}
