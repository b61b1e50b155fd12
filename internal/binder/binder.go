// Package binder provides a compact model of Android's Binder IPC layer:
// named endpoints and synchronous transactions that fail with
// android.os.DeadObjectException when no endpoint is published under the
// name — one of the exceptions the paper finds behind unresponsive
// components ("garbage collection can have the undesirable effect"). Fault
// campaigns inject transaction faults through SetFault.
package binder

import (
	"sync"

	"repro/internal/javalang"
	"repro/internal/telemetry"
)

// Handler processes one transaction and returns a reply or a Throwable.
type Handler func(code int, data any) (reply any, thr *javalang.Throwable)

// Router is the Binder driver: it maps endpoint names to handlers and
// delivers transactions. A Router belongs to one device.
type Router struct {
	mu        sync.Mutex
	endpoints map[string]Handler

	// Telemetry handles, cached at SetTelemetry time (nil = no-op).
	txOK      *telemetry.Counter
	txDead    *telemetry.Counter
	txLatency *telemetry.Histogram
	// rec receives a structured event per dead-object transaction — the
	// binder leg of the flight-recorder trail (nil = no-op).
	rec *telemetry.Recorder
	// fault, when set, is consulted on every transaction; a non-nil
	// Throwable fails the transaction without reaching the endpoint. The
	// fault-injection engine installs it for the duration of a binder fault
	// window; nil (the normal state) costs one predicate check.
	fault func(name string) *javalang.Throwable
}

// NewRouter returns an empty router.
func NewRouter() *Router {
	return &Router{endpoints: make(map[string]Handler)}
}

// Publish registers h under name. Publishing an existing name replaces the
// endpoint.
func (r *Router) Publish(name string, h Handler) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.endpoints[name] = h
}

// SetTelemetry wires the router's dispatch metrics into reg:
// binder_transactions_total{status} and the binder_transact_seconds
// latency histogram. A nil registry detaches (no-op metrics).
func (r *Router) SetTelemetry(reg *telemetry.Registry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.txOK = reg.Counter("binder_transactions_total", telemetry.L("status", "ok"))
	r.txDead = reg.Counter("binder_transactions_total", telemetry.L("status", "dead"))
	r.txLatency = reg.Histogram("binder_transact_seconds")
}

// SetFlightRecorder attaches the device flight recorder; dead-object
// transaction failures record an event into it. The recorder itself is
// single-threaded like the device, so the router only ever touches it from
// the simulation goroutine.
func (r *Router) SetFlightRecorder(rec *telemetry.Recorder) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rec = rec
}

// SetFault installs (or, with nil, lifts) a transaction fault predicate:
// every Transact consults it and fails with the returned Throwable without
// reaching the endpoint. Used by fault-injection windows to model flaky
// binder transports (DEAD_OBJECT, TRANSACTION_TOO_LARGE, timeouts).
func (r *Router) SetFault(fault func(name string) *javalang.Throwable) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fault = fault
}

// Reset empties the router back to its NewRouter state while reusing the
// map allocation: endpoints drop, and the telemetry, flight-recorder, and
// fault hooks detach (a persistent-mode campaign unit re-attaches its own).
func (r *Router) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	clear(r.endpoints)
	r.txOK, r.txDead, r.txLatency = nil, nil, nil
	r.rec = nil
	r.fault = nil
}

// Transact delivers a synchronous transaction to the named endpoint.
// Transactions against unpublished names fail with DeadObjectException,
// exactly the error apps observe when a remote process was reclaimed.
func (r *Router) Transact(name string, code int, data any) (any, *javalang.Throwable) {
	timer := telemetry.StartTimer(r.txLatency)
	defer timer.Stop()
	r.mu.Lock()
	h, ok := r.endpoints[name]
	fault := r.fault
	r.mu.Unlock()
	if fault != nil {
		if thr := fault(name); thr != nil {
			r.txDead.Inc()
			r.rec.RecordNow(telemetry.EventBinder, name, "", "fault:"+thr.Class.Simple())
			return nil, thr
		}
	}
	if !ok {
		r.txDead.Inc()
		r.rec.RecordNow(telemetry.EventBinder, name, "", "dead-object")
		return nil, javalang.Newf(javalang.ClassDeadObject,
			"Transaction failed on small parcel; remote process %q probably died", name)
	}
	r.txOK.Inc()
	return h(code, data)
}

// Lookup reports whether name is published.
func (r *Router) Lookup(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.endpoints[name]
	return ok
}

// Endpoints returns the number of published endpoints. Endpoint handlers
// are closures over their owning device, so snapshotting refuses any device
// with a non-zero count.
func (r *Router) Endpoints() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.endpoints)
}
