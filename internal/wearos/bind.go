package wearos

import (
	"repro/internal/intent"
	"repro/internal/javalang"
	"repro/internal/logcat"
	"repro/internal/manifest"
)

// Service binding. startService fire-and-forgets; bindService establishes
// a Binder connection the client can transact over and get death
// notifications from — the mechanism behind the paper's second post-mortem
// ("the application crashed several times ... that prevented it from
// binding to the Ambient Service").

// Connection is a live client->service binding.
type Connection struct {
	os       *OS
	endpoint string
	comp     intent.ComponentName
	closed   bool
}

// Component returns the bound service's component name.
func (c *Connection) Component() intent.ComponentName { return c.comp }

// Transact sends a synchronous transaction to the bound service. After the
// service process dies the transaction fails with DeadObjectException —
// the signal the paper's unresponsive-column analysis surfaces.
func (c *Connection) Transact(code int, data any) (any, *javalang.Throwable) {
	if c.closed {
		return nil, javalang.New(javalang.ClassIllegalState, "connection closed")
	}
	return c.os.router.Transact(c.endpoint, code, data)
}

// OnDeath registers fn to fire when the service's process dies.
func (c *Connection) OnDeath(fn func()) error {
	return c.os.router.LinkToDeath(c.endpoint, fn)
}

// Close unbinds; subsequent transactions fail.
func (c *Connection) Close() {
	c.closed = true
}

// BindHandler serves transactions for a bound service. Components without
// a registered bind handler answer with a simple echo (a service that
// binds fine but has no custom protocol).
type BindHandler func(code int, data any) (any, *javalang.Throwable)

// RegisterBindHandler attaches the transaction protocol for a service.
func (o *OS) RegisterBindHandler(cn intent.ComponentName, h BindHandler) {
	o.bindHandlers[cn] = h
}

// BindService resolves and binds a service, returning a live connection.
// The same checks as dispatch() apply: protected action, resolution,
// export, permission. Binding starts the process if needed and publishes a
// Binder endpoint owned by it.
func (o *OS) BindService(in *intent.Intent) (*Connection, *javalang.Throwable) {
	o.logDispatch("bindService", in)

	if o.protected(in.Action) && in.SenderUID != UIDSystem {
		thr := javalang.Newf(javalang.ClassSecurity,
			"Permission Denial: not allowed to bind with %s from uid=%d", in.Action, in.SenderUID)
		o.log.Log(1000, 1000, logcat.Warn, logcat.TagActivityManager,
			"%s targeting %s", thr.Error(), in.Component.FlattenToString())
		return nil, thr
	}
	comp := o.reg.Resolve(in, manifest.Service)
	if comp == nil {
		return nil, javalang.Newf(javalang.ClassIllegalArgument,
			"Service not registered: %s", in.Component.FlattenToString())
	}
	if (!comp.Exported || comp.Permission != "") && in.SenderUID != UIDSystem {
		thr := javalang.Newf(javalang.ClassSecurity,
			"Permission Denial: binding %s requires permission", comp.Name.FlattenToString())
		o.log.Log(1000, 1000, logcat.Warn, logcat.TagActivityManager,
			"%s targeting %s", thr.Error(), comp.Name.FlattenToString())
		return nil, thr
	}

	proc := o.ensureProcess(comp.Name.Package)
	endpoint := comp.BindEndpoint()
	cn := comp.Name
	o.router.Publish(endpoint, proc.PID, func(code int, data any) (any, *javalang.Throwable) {
		if h, ok := o.bindHandlers[cn]; ok {
			return h(code, data)
		}
		return data, nil // default echo protocol
	})
	o.log.Log(1000, 1000, logcat.Info, logcat.TagActivityManager,
		"Bound %s to pid=%d", comp.Flat(), proc.PID)
	return &Connection{os: o, endpoint: endpoint, comp: comp.Name}, nil
}
