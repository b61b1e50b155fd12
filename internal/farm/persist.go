// Persistent-mode shard execution, AFL-persistent-mode style: each
// executing goroutine owns one Executor, which keeps ONE hot device and
// resets it in place between the shards it runs (wearos.OS.ResetTo), and
// keeps its instantiated fleets and rewinds their behaviour draw streams
// instead of resampling (apps.FleetTemplate.Reset). It clones a device from
// the plan's boot snapshot (remote.go) only on a cold start or after
// retiring one.
//
// Correctness never depends on reuse. Every reset is validated against the
// template's captured state hash; a device that crashed its way into a
// reboot, aged past its template, or tripped the hash check in any way is
// retired and the unit transparently falls back to a fresh clone. The
// tests check the merged study byte for byte against a fresh-boot oracle
// (export_test.go).
package farm

import (
	"fmt"
	"time"

	"repro/internal/apps"
	"repro/internal/manifest"
	"repro/internal/wearos"
)

// Boot-source names reported on ShardResult.BootSource and the status board.
const (
	// BootClone marks a shard whose device was cloned from the boot
	// snapshot (cold start or after a retirement).
	BootClone = "clone"
	// BootReuse marks a shard served by the executor's hot device, reset
	// in place.
	BootReuse = "reuse"
	// BootAging marks a unit of an aging plan, run on the plan's single
	// device as the previous units left it.
	BootAging = "aging"
)

// freshBoot, when set, provisions every unit instead of the executor: a
// newly booted device and a from-scratch fleet. Only tests set it
// (export_test.go); fresh boot is the oracle the executor is checked
// against.
var freshBoot func(kind apps.FleetKind, seed uint64, pkg string) (*apps.Fleet, *wearos.OS, string, error)

// Executor is a persistent shard runner bound to one plan: a hot device
// reset in place between the shards it runs, and the per-package fleets
// already instantiated from the plan's template. farm.Run gives one to each
// pool goroutine; a service worker keeps one for the campaign it is
// serving. Not safe for concurrent use — one Executor per executing
// goroutine, like one device per worker.
type Executor struct {
	p   *Plan
	dev *wearos.OS
	// fleets caches instantiated fleets by package name. The shard plan is
	// campaign-major, so every package comes around once per campaign; the
	// cache turns the 2nd..Nth visits into a draw-stream rewind.
	fleets map[string]*apps.Fleet
}

// NewExecutor returns an empty executor for this plan; its first shard
// populates it.
func (p *Plan) NewExecutor() *Executor {
	return &Executor{p: p, fleets: make(map[string]*apps.Fleet)}
}

// ExecuteShard runs work unit idx of the plan in full isolation (runShard):
// private fleet behaviour state, per-shard generator split, triage
// collection and flight recording per the plan's Config.
func (e *Executor) ExecuteShard(idx int) (*ShardResult, error) {
	if idx < 0 || idx >= len(e.p.shards) {
		return nil, fmt.Errorf("farm: shard index %d outside plan of %d", idx, len(e.p.shards))
	}
	return e.runShard(e.p.shards[idx])
}

// boot produces the per-shard (fleet, device) pair: the hot device reset to
// the plan's boot snapshot (or a fresh clone of it) with the package
// installed and its handlers registered, and the package's fleet rewound to
// its freshly instantiated state. met records the reuse/clone outcome;
// source names the path for the status board.
func (e *Executor) boot(pkgName string, met farmMetrics) (*apps.Fleet, *wearos.OS, string, error) {
	if freshBoot != nil {
		return freshBoot(e.p.tmpl.Kind(), e.p.cfg.Seed, pkgName)
	}
	fleet, err := e.fleet(pkgName)
	if err != nil {
		return nil, nil, "", err
	}
	dev, source := e.device(met)
	if _, err := fleet.InstallPackageInto(dev, pkgName); err != nil {
		// The hot device now has a half-installed package on it; retire it
		// so the next unit starts from a clean clone.
		e.dev = nil
		return nil, nil, "", err
	}
	e.dev = dev
	return fleet, dev, source, nil
}

// bootAging serves every unit of an aging plan from one device, booted on
// the first unit with the plan's aging model and every package of the
// plan's template installed in fleet order, and never reset. The plan's
// registry, when there is one, meters the device from before the install
// on; otherwise the device keeps its own. It skips the boot snapshot, so
// the persist counters stay at zero.
func (e *Executor) bootAging(pkgName string) (*manifest.Package, *wearos.OS, error) {
	if e.dev == nil {
		tmpl := e.p.tmpl
		devCfg := agingDeviceConfig(tmpl.Kind())
		devCfg.Aging = *e.p.cfg.Aging
		dev := wearos.New(devCfg)
		if reg := e.p.cfg.Telemetry; reg != nil {
			dev.AttachTelemetry(reg)
		}
		for _, p := range e.p.fleet.Packages {
			fleet, err := tmpl.Instantiate(p.Name)
			if err == nil {
				_, err = fleet.InstallPackageInto(dev, p.Name)
			}
			if err != nil {
				return nil, nil, fmt.Errorf("farm: install fleet: %w", err)
			}
		}
		e.dev = dev
	}
	return e.dev.Registry().Package(pkgName), e.dev, nil
}

// fleet returns pkg's fleet rewound to its freshly instantiated state,
// instantiating it from the plan's template on first use or when the rewind
// fails its sanity checks.
func (e *Executor) fleet(pkg string) (*apps.Fleet, error) {
	if f := e.fleets[pkg]; f != nil && e.p.tmpl.Reset(f, pkg) {
		return f, nil
	}
	f, err := e.p.tmpl.Instantiate(pkg)
	if err != nil {
		return nil, err
	}
	e.fleets[pkg] = f
	return f, nil
}

// device returns the executor's hot device reset to the plan's snapshot,
// or a fresh clone when there is no reusable device. The persist counters
// record the outcome: a reuse, or a retirement (reset attempted and failed)
// followed by a fallback clone, which adopts the retired device's logcat
// ring. A cold start counts as a fallback but not a retirement, and clones
// a new ring.
func (e *Executor) device(met farmMetrics) (*wearos.OS, string) {
	snap := e.p.snap
	var retired *wearos.OS
	if e.dev != nil {
		start := time.Now()
		ok := e.dev.ResetTo(snap)
		met.resetSeconds.Observe(time.Since(start).Seconds())
		if ok {
			met.persistReuses.Inc()
			return e.dev, BootReuse
		}
		met.persistRetires.Inc()
		retired = e.dev
	}
	met.persistFallbacks.Inc()
	start := time.Now()
	dev := snap.CloneReplacing(retired)
	met.cloneSeconds.Observe(time.Since(start).Seconds())
	return dev, BootClone
}
