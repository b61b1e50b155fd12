// Package faultinject is the OS-level fault-injection engine behind
// campaign F (FIC F): it perturbs the simulated device *underneath* the
// application layer — binder transaction failures, sensor-service stalls
// and silently frozen streams, killed system services, storage I/O errors —
// on a seeded, dispatch-sequence-keyed schedule, and grades how gracefully
// the system degrades and recovers.
//
// The paper's campaigns probe the app layer's robustness to hostile
// *inputs*; FIC F probes the same fleet's robustness to a degraded
// *platform*, the other half of the dependability question for a wearable
// (sensors drop out, the watch's flash wears, core services get reclaimed
// under memory pressure). Large fault-injection studies on Android
// (Cotroneo et al.) use exactly this shape: a deterministic fault load plus
// oracles that distinguish crash, hang, silent data loss, and failed
// recovery.
//
// Determinism contract: a Plan is a pure function of (seed, budget). Fault
// windows open and close on dispatch sequence numbers — per-device
// deterministic coordinates — never wall time, and every probe the engine
// performs happens at a window edge or inside the Post hook of a dispatch,
// so a fault campaign replays byte-identically across worker counts and
// kill/resume (each farm shard derives its fault seed by splitting the
// study seed on the shard key).
package faultinject

import (
	"repro/internal/javalang"
	"repro/internal/logcat"
	"repro/internal/rng"
	"repro/internal/sensors"
	"repro/internal/telemetry"
	"repro/internal/wearos"
)

// Kind enumerates the injectable OS faults.
type Kind int

const (
	// BinderDead: every binder transaction fails with DeadObjectException,
	// as if the remote process was reclaimed mid-call.
	BinderDead Kind = iota + 1
	// BinderTooLarge: transactions fail with TransactionTooLargeException —
	// the binder buffer is exhausted.
	BinderTooLarge
	// BinderTimeout: transactions hang until the caller's deadline and fail
	// with a RemoteException timeout.
	BinderTimeout
	// SensorStall: the sensor service stops answering; registrations and
	// reads time out.
	SensorStall
	// SensorStale: sensor reads succeed but replay the last delivered
	// sample — a silently frozen stream, invisible without a freshness
	// oracle.
	SensorStale
	// ServiceKill: the sensor service process is SIGKILLed outside the
	// watchdog's view; recovery requires an explicit restart.
	ServiceKill
	// StorageIO: persistent-storage writes (DropBox filings) fail with an
	// I/O error and the record is lost.
	StorageIO
)

// AllKinds lists every fault kind in schedule rotation order.
var AllKinds = []Kind{
	BinderDead, BinderTooLarge, BinderTimeout,
	SensorStall, SensorStale, ServiceKill, StorageIO,
}

// String returns the fault's stable identifier (used in logcat VERDICT
// lines, triage buckets, and report tables).
func (k Kind) String() string {
	switch k {
	case BinderDead:
		return "binder-dead"
	case BinderTooLarge:
		return "binder-toolarge"
	case BinderTimeout:
		return "binder-timeout"
	case SensorStall:
		return "sensor-stall"
	case SensorStale:
		return "sensor-stale"
	case ServiceKill:
		return "svc-kill"
	case StorageIO:
		return "storage-io"
	default:
		return "unknown"
	}
}

// Target names the subsystem the fault degrades.
func (k Kind) Target() string {
	switch k {
	case BinderDead, BinderTooLarge, BinderTimeout:
		return "binder"
	case SensorStall, SensorStale, ServiceKill:
		return "sensorservice"
	case StorageIO:
		return "dropbox"
	default:
		return "unknown"
	}
}

// Verdict strings for graded fault outcomes. They double as triage record
// kinds (triage parses them back out of the VERDICT logcat line), so the
// vocabulary here and triage's fault-kind constants must match.
const (
	// VerdictDegradedRecovered: the subsystem failed visibly during the
	// window and came back healthy after it — graceful degradation.
	VerdictDegradedRecovered = "degraded-recovered"
	// VerdictStall: the degradation manifested as timeouts (hangs from the
	// caller's perspective) rather than prompt errors.
	VerdictStall = "stall"
	// VerdictSilentDrop: no error surfaced anywhere, but data was lost or
	// frozen — the worst kind of sensor failure for a health wearable.
	VerdictSilentDrop = "silent-drop"
	// VerdictFailedRecovery: the subsystem was still unhealthy after the
	// window ended (or the fault was configured to out-live it).
	VerdictFailedRecovery = "failed-recovery"
)

// Window is one scheduled fault: Kind is injected when the device's
// dispatch sequence reaches Start and lifted after End (inclusive).
type Window struct {
	Kind  Kind   `json:"kind"`
	Start uint64 `json:"start"`
	End   uint64 `json:"end"`
	// Recover is false for windows whose fault deliberately out-lives the
	// schedule — the engine grades them failed-recovery before re-arming
	// the device, deterministically populating that bucket.
	Recover bool `json:"recover"`
}

// Plan is a deterministic fault schedule: non-overlapping windows in
// ascending Start order with cool-down gaps between them.
type Plan struct {
	Seed    uint64   `json:"seed"`
	Budget  int      `json:"budget"`
	Windows []Window `json:"windows"`
}

// Schedule-shape constants: windows are short (a handful of dispatches)
// and separated by gaps so each one's recovery is observable in isolation.
const (
	minGap, maxGap   = 2, 6
	minLen, maxLen   = 3, 8
	minCool, maxCool = 2, 4
	// recoverP is the probability a window recovers when its schedule says
	// so; the remainder model faults that wedge the subsystem for good.
	recoverP = 0.85
)

// NewPlan derives the fault schedule for a run expected to perform about
// budget dispatches. The schedule is a pure function of (seed, budget):
// fault kinds rotate so every kind appears once the budget allows, and all
// randomness comes from one SplitMix64 stream split off the seed.
func NewPlan(seed uint64, budget int) *Plan {
	p := &Plan{Seed: seed, Budget: budget}
	r := rng.New(seed).Split("fault-schedule")
	// The rotation starts at a seeded offset: short schedules (quick runs)
	// only fit a few windows each, and without the offset every shard would
	// exercise the same first kinds — the offset spreads kind coverage
	// across shards, whose fault seeds differ by construction.
	off := r.IntBetween(0, len(AllKinds)-1)
	cursor := uint64(1)
	for i := 0; ; i++ {
		gap := uint64(r.IntBetween(minGap, maxGap))
		length := uint64(r.IntBetween(minLen, maxLen))
		cool := uint64(r.IntBetween(minCool, maxCool))
		recover := r.Bool(recoverP)
		start := cursor + gap
		end := start + length
		if end+cool > uint64(budget) {
			break
		}
		p.Windows = append(p.Windows, Window{
			Kind: AllKinds[(off+i)%len(AllKinds)], Start: start, End: end, Recover: recover,
		})
		cursor = end + cool
	}
	return p
}

// Verdict is one graded fault outcome.
type Verdict struct {
	Fault   string `json:"fault"`
	Verdict string `json:"verdict"`
	Target  string `json:"target"`
	App     string `json:"app"`
	Start   uint64 `json:"start"`
	End     uint64 `json:"end"`
	// Failed/OK count in-window probes by outcome.
	Failed int `json:"failed"`
	OK     int `json:"ok"`
}

// probeEndpoint is the binder endpoint the engine publishes for its own
// health probes, and probeClient its sensor-probe registration.
const (
	probeEndpoint = "faultinject.probe"
	probeClient   = "faultinject.probe"
)

// active tracks the currently open window and its probe tallies.
type active struct {
	w          Window
	failed, ok int
}

// Engine drives a Plan against one device: it brackets every dispatch via
// the OS fault hooks, opens/closes windows on schedule, probes the faulted
// subsystem from inside each window, and grades the outcome when the window
// closes. Like the device it instruments, an Engine is single-threaded.
type Engine struct {
	dev  *wearos.OS
	plan *Plan
	app  string
	log  *logcat.Logger
	rec  *telemetry.Recorder

	next int
	// nextStart caches plan.Windows[next].Start (MaxUint64 once the schedule
	// is exhausted). The engine publishes it to the device (publish), so a
	// dormant dispatch — the overwhelmingly common case, every dispatch
	// outside a window — skips both hooks after one compare. Campaign F's
	// hot-path budget depends on it.
	nextStart uint64
	cur       *active
	verdicts  []Verdict
	fresh     bool

	// Baselines captured at window open, diffed at close to detect silent
	// degradation the probes cannot see as errors.
	staleBase uint64
	dropBase  uint64
}

// NewEngine attaches a fault engine to the device and installs the dispatch
// hooks. Attach after any snapshot/clone step: the engine publishes a binder
// probe endpoint, and snapshotting refuses devices with live endpoints.
func NewEngine(dev *wearos.OS, plan *Plan, app string) *Engine {
	e := &Engine{dev: dev, plan: plan, app: app, log: dev.Logger(), rec: dev.FlightRecorder()}
	e.setNextStart()
	dev.SetFaultHooks(wearos.FaultHooks{Pre: e.Pre, Post: e.Post})
	e.publish()
	e.ensureProbes()
	return e
}

// publish tells the device the first dispatch the hooks must see: every
// one while a window is open (Post probes inside it), else the next
// window's start.
func (e *Engine) publish() {
	if e.cur != nil {
		e.dev.SetFaultNext(0)
	} else {
		e.dev.SetFaultNext(e.nextStart)
	}
}

// setNextStart refreshes the cached start coordinate of the next scheduled
// window.
func (e *Engine) setNextStart() {
	if e.next < len(e.plan.Windows) {
		e.nextStart = e.plan.Windows[e.next].Start
	} else {
		e.nextStart = ^uint64(0)
	}
}

// Verdicts returns the graded windows so far (engine keeps ownership).
func (e *Engine) Verdicts() []Verdict { return e.verdicts }

// TakeVerdict reports whether a verdict was emitted since the last call and
// clears the flag — the farm's Observe hook uses it to pair the in-flight
// intent and flight-recorder window with the triage record the verdict's
// logcat line just produced.
func (e *Engine) TakeVerdict() bool {
	f := e.fresh
	e.fresh = false
	return f
}

// Pre runs before each delivery: it closes an expired window and opens the
// next due one, both on the dispatch-sequence coordinate.
func (e *Engine) Pre(seq uint64) {
	if e.cur != nil && seq > e.cur.w.End {
		e.close()
	}
	if e.cur == nil && seq >= e.nextStart {
		w := e.plan.Windows[e.next]
		e.next++
		e.setNextStart()
		e.open(w)
	}
	e.publish()
}

// Post runs after each delivery; inside a window it probes the faulted
// subsystem so the during-fault behaviour is observed, not assumed.
func (e *Engine) Post(seq uint64, res wearos.DeliveryResult) {
	if e.cur == nil {
		return
	}
	ok, detail := e.probe(e.cur.w.Kind)
	if ok {
		e.cur.ok++
	} else {
		e.cur.failed++
	}
	e.rec.Record(telemetry.EventFault, e.cur.w.Kind.Target(), "", "probe:"+detail)
}

// Finish closes a window still open when the campaign ends (its scheduled
// End was never reached) and grades it. Call once after the last dispatch.
func (e *Engine) Finish() {
	if e.cur != nil {
		e.close()
		e.publish()
	}
}

func (e *Engine) open(w Window) {
	e.ensureProbes()
	e.staleBase, e.dropBase = e.baselines()
	e.log.Log(1000, 1000, logcat.Warn, logcat.TagFaultInject,
		"opening %s fault window [%d,%d] on %s", w.Kind, w.Start, w.End, w.Kind.Target())
	e.rec.RecordNow(telemetry.EventFault, w.Kind.Target(), "", "begin:"+w.Kind.String())
	e.install(w.Kind)
	e.cur = &active{w: w}
}

func (e *Engine) close() {
	a := e.cur
	e.cur = nil
	w := a.w
	if w.Recover {
		e.restore(w.Kind)
	}
	// Post-window health check: with Recover the fault is lifted and this
	// asks "did the subsystem come back?"; without it the fault is still
	// installed and the check documents the stuck state.
	ok, detail := e.probe(w.Kind)
	stale, dropped := e.baselines()

	verdict := VerdictDegradedRecovered
	switch {
	case !w.Recover || !ok:
		verdict = VerdictFailedRecovery
	case w.Kind == SensorStale && stale > e.staleBase,
		w.Kind == StorageIO && dropped > e.dropBase:
		verdict = VerdictSilentDrop
	case (w.Kind == SensorStall || w.Kind == BinderTimeout) && a.failed > 0:
		verdict = VerdictStall
	}
	if !w.Recover {
		// The window modelled a fault that never heals on its own; now that
		// it is graded, re-arm the device so the campaign can continue.
		e.restore(w.Kind)
	}

	e.log.Log(1000, 1000, logcat.Info, logcat.TagFaultInject,
		"closing %s fault window [%d,%d]: post-restore probe %s", w.Kind, w.Start, w.End, detail)
	// The VERDICT line is the oracle hand-off: triage's collector parses it
	// synchronously (logcat sinks fire within Append) into a non-exception
	// failure record, the same pipeline crashes and ANRs ride.
	e.log.Log(1000, 1000, logcat.Info, logcat.TagFaultInject,
		"VERDICT verdict=%s fault=%s target=%s app=%s window=%d-%d probes=%d/%d",
		verdict, w.Kind, w.Kind.Target(), e.app, w.Start, w.End,
		a.failed, a.failed+a.ok)
	e.rec.RecordNow(telemetry.EventFault, w.Kind.Target(), "", "verdict:"+verdict)
	e.verdicts = append(e.verdicts, Verdict{
		Fault: w.Kind.String(), Verdict: verdict, Target: w.Kind.Target(),
		App: e.app, Start: w.Start, End: w.End, Failed: a.failed, OK: a.ok,
	})
	e.fresh = true
}

// baselines samples the silent-degradation counters (stale sensor reads,
// dropped storage records).
func (e *Engine) baselines() (stale, dropped uint64) {
	_, stale = e.dev.SensorService().FaultStats()
	return stale, e.dev.StorageDropped()
}

// install arms the fault.
func (e *Engine) install(k Kind) {
	switch k {
	case BinderDead, BinderTooLarge, BinderTimeout:
		e.dev.Binder().SetFault(func(name string) *javalang.Throwable {
			return binderThrowable(k, name)
		})
	case SensorStall:
		e.dev.SensorService().SetFaultMode(sensors.FaultStall)
	case SensorStale:
		e.dev.SensorService().SetFaultMode(sensors.FaultStale)
	case ServiceKill:
		e.dev.SensorService().Kill("SIGKILL")
	case StorageIO:
		e.dev.SetStorageFault(func() *javalang.Throwable {
			return javalang.New(javalang.ClassIO,
				"write failed: EIO (I/O error) on /data/system/dropbox")
		})
	}
}

// restore lifts the fault and heals the subsystem.
func (e *Engine) restore(k Kind) {
	switch k {
	case BinderDead, BinderTooLarge, BinderTimeout:
		e.dev.Binder().SetFault(nil)
	case SensorStall, SensorStale:
		e.dev.SensorService().SetFaultMode(sensors.FaultNone)
	case ServiceKill:
		if e.dev.SensorService().State() != sensors.ServiceRunning {
			e.dev.RestartSensorService()
		}
	case StorageIO:
		e.dev.SetStorageFault(nil)
	}
}

// binderThrowable fabricates the per-kind transaction failure.
func binderThrowable(k Kind, name string) *javalang.Throwable {
	switch k {
	case BinderTooLarge:
		return javalang.Newf(javalang.ClassTxTooLarge,
			"data parcel size 1052672 bytes exceeds binder buffer (endpoint %s)", name)
	case BinderTimeout:
		return javalang.Newf(javalang.ClassRemote,
			"binder transaction to %s timed out after 5000ms", name)
	default:
		return javalang.Newf(javalang.ClassDeadObject,
			"Transaction failed on small parcel; remote process %q probably died", name)
	}
}

// probe actively exercises the fault's target subsystem and reports health.
// detail is "ok" or the failing Throwable's simple class name.
func (e *Engine) probe(k Kind) (ok bool, detail string) {
	switch k.Target() {
	case "binder":
		e.ensureProbes()
		if _, thr := e.dev.Binder().Transact(probeEndpoint, 0, nil); thr != nil {
			return false, thr.Class.Simple()
		}
		return true, "ok"
	case "sensorservice":
		svc := e.dev.SensorService()
		_, thr := svc.Read(probeClient, sensors.HeartRate)
		if thr != nil && thr.Class == javalang.ClassIllegalState {
			// The service restarted (fault recovery or a device reboot) and
			// dropped the probe's registration; re-register and retry once.
			if rthr := svc.Register(probeClient, sensors.HeartRate); rthr != nil {
				return false, rthr.Class.Simple()
			}
			_, thr = svc.Read(probeClient, sensors.HeartRate)
		}
		if thr != nil {
			return false, thr.Class.Simple()
		}
		return true, "ok"
	default: // dropbox
		if thr := e.dev.FileDropBox("faultinject_probe", "faultinject"); thr != nil {
			return false, thr.Class.Simple()
		}
		return true, "ok"
	}
}

// ensureProbes (re-)publishes the binder probe endpoint and the sensor
// probe registration. Both can vanish legitimately mid-campaign — a reboot
// restarts the sensor service, a service-kill window drops registrations —
// so every probe site re-arms lazily instead of assuming attach-time state.
func (e *Engine) ensureProbes() {
	if !e.dev.Binder().Lookup(probeEndpoint) {
		e.dev.Binder().Publish(probeEndpoint,
			func(code int, data any) (any, *javalang.Throwable) { return "pong", nil })
	}
	svc := e.dev.SensorService()
	if svc.State() == sensors.ServiceRunning && svc.Listeners(probeClient) == 0 &&
		svc.FaultMode() == sensors.FaultNone {
		_ = svc.Register(probeClient, sensors.HeartRate)
	}
}
