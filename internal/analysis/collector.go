// Package analysis reconstructs the paper's measurements from device logs.
//
// The study's ground truth is logcat: "we collected all of the log files
// (over 2GB) from the wearable using logcat ... Then, we analyzed the logs
// to gather information, and for each component classified the behavior of
// the application according to the expected scenarios" (Section III-D).
// This package implements that pipeline: a streaming Collector consumes log
// entries (either live, as a logcat sink, or from a pulled dump) through a
// logcat.Decoder, which parses every line format and reassembles FATAL
// EXCEPTION blocks. On the decoded events the collector tracks which
// component each process was last delivered, associates ANR traces,
// performs the temporal-chain root-cause analysis of Section IV-A, and
// aggregates per-component reports. It never sees fuzzer or
// behaviour-model internals.
package analysis

import (
	"time"

	"repro/internal/intent"
	"repro/internal/javalang"
	"repro/internal/logcat"
	"repro/internal/telemetry"
)

// Manifestation is the paper's four-level severity scale (Section III-C),
// ordered so that larger values are more severe.
type Manifestation int

const (
	// ManifestNoEffect: no failure visible (possibly a handled or rejected
	// exception).
	ManifestNoEffect Manifestation = iota + 1
	// ManifestUnresponsive: ANR (hang).
	ManifestUnresponsive
	// ManifestCrash: FATAL EXCEPTION killed the process.
	ManifestCrash
	// ManifestReboot: the component participated in an escalation that
	// rebooted the device.
	ManifestReboot
)

// String names the manifestation the way the paper's figures do.
func (m Manifestation) String() string {
	switch m {
	case ManifestNoEffect:
		return "No Effect"
	case ManifestUnresponsive:
		return "Unresponsive"
	case ManifestCrash:
		return "Crash"
	case ManifestReboot:
		return "Reboot"
	default:
		return "unknown"
	}
}

// AllManifestations lists the scale from least to most severe.
var AllManifestations = []Manifestation{
	ManifestNoEffect, ManifestUnresponsive, ManifestCrash, ManifestReboot,
}

// ComponentReport accumulates everything observed about one component.
type ComponentReport struct {
	Component  intent.ComponentName
	Type       string // "activity" or "service", from delivery logs
	Deliveries int
	// Security counts SecurityException rejections by the OS.
	Security int
	// Rejected counts validation exceptions thrown back to the sender.
	Rejected map[javalang.Class]int
	// Caught counts exceptions the app handled itself.
	Caught map[javalang.Class]int
	// CrashRoots counts root-cause classes of FATAL EXCEPTION blocks
	// (temporal-chain analysis: the first-raised exception in the chain is
	// blamed).
	CrashRoots map[javalang.Class]int
	// ANRs counts hang events; ANRClasses the exception classes visible in
	// the traces that accompanied them.
	ANRs       int
	ANRClasses map[javalang.Class]int
	// RebootInvolved marks the component as part of a reboot escalation
	// window.
	RebootInvolved bool
}

func newComponentReport(cn intent.ComponentName) *ComponentReport {
	return &ComponentReport{
		Component:  cn,
		Rejected:   make(map[javalang.Class]int),
		Caught:     make(map[javalang.Class]int),
		CrashRoots: make(map[javalang.Class]int),
		ANRClasses: make(map[javalang.Class]int),
	}
}

// Manifestation returns the most severe behaviour the component exhibited
// ("If a component has different manifestations to multiple injected
// intents, we take the most severe manifestation", Section IV-A).
func (cr *ComponentReport) Manifestation() Manifestation {
	switch {
	case cr.RebootInvolved:
		return ManifestReboot
	case len(cr.CrashRoots) > 0:
		return ManifestCrash
	case cr.ANRs > 0:
		return ManifestUnresponsive
	default:
		return ManifestNoEffect
	}
}

// UncaughtClasses returns the set of exception classes that escaped the app
// for this component: security rejections, validation rejections, crash
// root causes, and ANR-associated exceptions. Caught exceptions are
// excluded — the app handled those.
func (cr *ComponentReport) UncaughtClasses(includeSecurity bool) []javalang.Class {
	set := make(map[javalang.Class]bool)
	if includeSecurity && cr.Security > 0 {
		set[javalang.ClassSecurity] = true
	}
	for c := range cr.Rejected {
		set[c] = true
	}
	for c := range cr.CrashRoots {
		set[c] = true
	}
	for c := range cr.ANRClasses {
		set[c] = true
	}
	out := make([]javalang.Class, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	return out
}

// Report is the aggregate outcome of one analysis pass.
type Report struct {
	Components map[intent.ComponentName]*ComponentReport
	// RebootTimes records each device reboot seen in the log.
	RebootTimes []time.Time
	// CoreServiceDeaths lists native core-service deaths ("sensorservice
	// SIGABRT", "system_server SIGSEGV").
	CoreServiceDeaths []string
	// CrashEvents counts FATAL EXCEPTION blocks (events, not components).
	CrashEvents int
	// ANREvents counts ANR events.
	ANREvents int
	// SecurityEvents counts SecurityException rejections (events).
	SecurityEvents int
	// Entries counts consumed log lines.
	Entries int
}

func newReport() *Report {
	return &Report{Components: make(map[intent.ComponentName]*ComponentReport)}
}

func (r *Report) component(cn intent.ComponentName) *ComponentReport {
	cr, ok := r.Components[cn]
	if !ok {
		cr = newComponentReport(cn)
		r.Components[cn] = cr
	}
	return cr
}

// rebootWindow is how far back the analyzer looks for the failures that
// escalated into a reboot. The paper's post-mortems are manual; ten
// minutes of virtual time covers both escalation chains (the three sensor
// ANRs are separated by full component sweeps).
const rebootWindow = 10 * time.Minute

// blameWindow is how recent an escalation marker (Watchdog SIGABRT notice,
// AmbientService bind failure) must be to anchor reboot attribution.
const blameWindow = 2 * time.Minute

// anrTraceWindow is how close (in log time) an exception trace must follow
// an ANR entry to be associated with it.
const anrTraceWindow = 2 * time.Second

// recentFailure is a component failure at a log time: a reboot-attribution
// queue entry, or a process's last ANR.
type recentFailure struct {
	at   time.Time
	comp intent.ComponentName
}

// Collector is a streaming analyzer: Sink subscribes it alone to a device
// buffer, and it can equally consume pulled dumps via
// ConsumeAll/AnalyzeEntries.
type Collector struct {
	report *Report
	dec    logcat.Decoder
	// hot is the report of the component the last event named: delivery,
	// denial and rejection lines come in runs per component, and comparing
	// names that share their strings is cheaper than hashing them.
	hot *ComponentReport
	// exceptions counts as the report's exception tallies grow, so a caller
	// can tell whether an event raised one without walking the report.
	exceptions int

	pidComp map[int]intent.ComponentName
	// lastPID and lastComp mirror the pidComp entry the last delivery
	// wrote (valid while hasLast): a campaign delivers runs of intents to
	// one process and component, and a repeat needs no map write.
	lastPID  int
	lastComp intent.ComponentName
	hasLast  bool
	// recent is a ring of the last maxRecent failures, the oldest at
	// recentHead; it grows to maxRecent, then wraps in place.
	recent     []recentFailure
	recentHead int
	lastANR    map[string]recentFailure // by process name

	// Escalation markers for reboot attribution (the post-mortem anchors).
	blameProcAt time.Time
	blameProc   string
	blameCompAt time.Time
	blameComp   intent.ComponentName
	hasBlame    bool

	// Telemetry (nil = no-op). The counters mirror the Report event tallies;
	// the manifest gauges track every component's current most-severe
	// manifestation so a concurrent scrape always matches what Report()
	// would say.
	entriesTotal   *telemetry.Counter
	crashTotal     *telemetry.Counter
	anrTotal       *telemetry.Counter
	securityTotal  *telemetry.Counter
	rebootsTotal   *telemetry.Counter
	consumeSeconds *telemetry.Histogram
	manifest       map[Manifestation]*telemetry.Gauge
	levels         map[intent.ComponentName]Manifestation
}

// NewCollector returns an empty streaming analyzer.
func NewCollector() *Collector {
	return &Collector{
		report:  newReport(),
		pidComp: make(map[int]intent.ComponentName),
		lastANR: make(map[string]recentFailure),
	}
}

// UseTelemetry wires the collector's classification metrics into reg and
// returns c for chaining. The analysis_components{manifestation=...} gauges
// are maintained incrementally on every severity change, so they agree with
// Report() at any instant without locking the report.
func (c *Collector) UseTelemetry(reg *telemetry.Registry) *Collector {
	if reg == nil {
		return c
	}
	c.entriesTotal = reg.Counter("analysis_entries_total")
	c.crashTotal = reg.Counter("analysis_crash_events_total")
	c.anrTotal = reg.Counter("analysis_anr_events_total")
	c.securityTotal = reg.Counter("analysis_security_events_total")
	c.rebootsTotal = reg.Counter("analysis_reboots_total")
	c.consumeSeconds = reg.Histogram("analysis_consume_seconds")
	c.manifest = make(map[Manifestation]*telemetry.Gauge, len(AllManifestations))
	for _, m := range AllManifestations {
		c.manifest[m] = reg.Gauge("analysis_components", telemetry.L("manifestation", m.String()))
	}
	c.levels = make(map[intent.ComponentName]Manifestation)
	return c
}

// syncManifest re-derives the component's manifestation and moves it between
// the severity gauges when it changed (or registers it on first sight).
func (c *Collector) syncManifest(cr *ComponentReport) {
	if c.manifest == nil {
		return
	}
	cn := cr.Component
	cur := cr.Manifestation()
	prev, seen := c.levels[cn]
	if seen && prev == cur {
		return
	}
	if seen {
		c.manifest[prev].Add(-1)
	}
	c.manifest[cur].Add(1)
	c.levels[cn] = cur
}

// Report returns the accumulated report. The collector keeps ownership; do
// not consume further entries while reading concurrently.
func (c *Collector) Report() *Report { return c.report }

// Exceptions returns how many exception observations the collector has
// made: SecurityEvents plus every Rejected, Caught, CrashRoots and
// ANRClasses count of every component.
func (c *Collector) Exceptions() int { return c.exceptions }

// ConsumeAll feeds a slice of entries (a pulled logcat dump) in order.
func (c *Collector) ConsumeAll(entries []logcat.Entry) {
	for _, e := range entries {
		c.Consume(e)
	}
}

// AnalyzeEntries is the one-shot convenience over a pulled dump.
func AnalyzeEntries(entries []logcat.Entry) *Report {
	c := NewCollector()
	c.ConsumeAll(entries)
	return c.Report()
}

// Consume takes one log entry at a time, in order, decoded by the
// collector's own decoder.
func (c *Collector) Consume(e logcat.Entry) { (*collectorSink)(c).Consume(&e) }

// Sink returns the collector as a log sink that decodes each entry in
// place with the collector's own decoder. Every call returns the same sink,
// so Unsubscribe(c.Sink()) detaches a subscribed one.
func (c *Collector) Sink() logcat.Sink { return (*collectorSink)(c) }

type collectorSink Collector

func (s *collectorSink) Consume(e *logcat.Entry) {
	c := (*Collector)(s)
	c.Observe(e, c.dec.Decode(e))
}

// Observe takes one log entry, in log order, with the event a full
// logcat.Decoder decoded from it; a caller that feeds several consumers
// decodes each line once. The collector reads the typed event; the only
// text it parses is an app line's exception header, and only inside an
// ANR-trace window.
func (c *Collector) Observe(e *logcat.Entry, ev *logcat.Event) {
	timer := telemetry.StartTimer(c.consumeSeconds)
	defer timer.Stop()
	c.report.Entries++
	c.entriesTotal.Inc()
	switch ev.Kind {
	case logcat.EventDelivery:
		if !c.hasLast || ev.PID != c.lastPID || ev.Comp != c.lastComp {
			c.pidComp[ev.PID] = ev.Comp
			c.lastPID, c.lastComp, c.hasLast = ev.PID, ev.Comp, true
		}
		cr := c.component(ev.Comp)
		cr.Type = ev.Text
		cr.Deliveries++
		c.syncManifest(cr)
	case logcat.EventDenial:
		cr := c.component(ev.Comp)
		cr.Security++
		c.report.SecurityEvents++
		c.exceptions++
		c.securityTotal.Inc()
		c.syncManifest(cr)
	case logcat.EventRejection:
		cr := c.component(ev.Comp)
		cr.Rejected[ev.Class]++
		c.exceptions++
		c.syncManifest(cr)
	case logcat.EventCaught:
		if cn, ok := c.pidComp[ev.PID]; ok {
			cr := c.component(cn)
			cr.Caught[ev.Class]++
			c.exceptions++
			c.syncManifest(cr)
		}
	case logcat.EventANR:
		if ev.Comp.IsZero() {
			return
		}
		cr := c.component(ev.Comp)
		cr.ANRs++
		c.report.ANREvents++
		c.anrTotal.Inc()
		c.syncManifest(cr)
		c.lastANR[ev.Proc] = recentFailure{at: e.Time(), comp: ev.Comp}
		c.pushRecent(e.Time(), ev.Comp)
	case logcat.EventFatal:
		cn, ok := c.pidComp[ev.PID]
		if !ok {
			return
		}
		// Temporal-chain root cause: the deepest "Caused by" is the first
		// exception raised, so it takes the blame (Section IV-A).
		root := javalang.Class(ev.Classes[len(ev.Classes)-1])
		cr := c.component(cn)
		cr.CrashRoots[root]++
		c.exceptions++
		c.report.CrashEvents++
		c.crashTotal.Inc()
		c.syncManifest(cr)
		c.pushRecent(e.Time(), cn)
	case logcat.EventSignal:
		c.report.CoreServiceDeaths = append(c.report.CoreServiceDeaths, ev.Proc+" "+ev.Text)
	case logcat.EventWatchdog:
		// The unresponsive sensor client: the first escalation anchor.
		c.blameProc, c.blameProcAt, c.hasBlame = ev.Proc, e.Time(), true
	case logcat.EventAmbient:
		// The second escalation anchor names the failing component.
		c.blameComp, c.blameCompAt, c.hasBlame = ev.Comp, e.Time(), true
	case logcat.EventReboot:
		c.report.RebootTimes = append(c.report.RebootTimes, e.Time())
		c.rebootsTotal.Inc()
		c.attributeReboot(e.Time())
		c.recent, c.recentHead = c.recent[:0], 0
		// Processes restart after reboot; stale PID mappings must not leak
		// attributions across the boot.
		c.pidComp = make(map[int]intent.ComponentName)
		c.hasLast = false
		c.lastANR = make(map[string]recentFailure)
		c.hasBlame = false
	case logcat.EventAppLine:
		// An exception header logged by the app shortly after its ANR is the
		// trace of whatever wedged the looper (e.g. the DeadObjectException
		// hinting at garbage collection, Section IV-A).
		if mark, ok := c.lastANR[e.Tag]; ok && e.Time().Sub(mark.at) <= anrTraceWindow {
			if class, _, ok := javalang.ParseHeader(ev.Text); ok {
				c.component(mark.comp).ANRClasses[class]++
				c.exceptions++
			}
		}
	}
}

// component returns cn's report, creating it on first sight.
func (c *Collector) component(cn intent.ComponentName) *ComponentReport {
	if c.hot == nil || c.hot.Component != cn {
		c.hot = c.report.component(cn)
	}
	return c.hot
}

// attributeReboot implements the post-mortem: when the log names the
// escalation anchor (the unresponsive sensor client, or the component that
// could not bind the Ambient Service), only that process/component's recent
// failures take the blame; otherwise every recent failure in the window
// does.
func (c *Collector) attributeReboot(at time.Time) {
	cutoff := at.Add(-rebootWindow)
	blameProc := ""
	var blameComp intent.ComponentName
	if c.hasBlame {
		if !c.blameCompAt.IsZero() && at.Sub(c.blameCompAt) <= blameWindow {
			blameComp = c.blameComp
		}
		if !c.blameProcAt.IsZero() && at.Sub(c.blameProcAt) <= blameWindow {
			blameProc = c.blameProc
		}
	}
	if !blameComp.IsZero() {
		cr := c.component(blameComp)
		cr.RebootInvolved = true
		c.syncManifest(cr)
		return
	}
	for i := range c.recent {
		f := &c.recent[(c.recentHead+i)%len(c.recent)]
		if f.at.Before(cutoff) {
			continue
		}
		if blameProc != "" && f.comp.Package != blameProc {
			continue
		}
		cr := c.component(f.comp)
		cr.RebootInvolved = true
		c.syncManifest(cr)
	}
}

// maxRecent bounds the reboot-attribution queue.
const maxRecent = 256

func (c *Collector) pushRecent(at time.Time, cn intent.ComponentName) {
	f := recentFailure{at: at, comp: cn}
	if len(c.recent) < maxRecent {
		c.recent = append(c.recent, f)
		return
	}
	c.recent[c.recentHead] = f
	c.recentHead = (c.recentHead + 1) % maxRecent
}
