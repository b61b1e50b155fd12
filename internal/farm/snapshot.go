// Forkserver-style boot templates: the farm boots one template device per
// distinct device configuration and builds one fleet template per (fleet
// kind, seed); executors (persist.go) stamp shard devices out of them with
// wearos.Snapshot.Clone and shard behaviour models with
// apps.FleetTemplate.Instantiate. Clones are observably identical to fresh
// boots (the snapshot determinism contract).
package farm

import (
	"sync"

	"repro/internal/apps"
	"repro/internal/wearos"
)

// fleetKey identifies one shared fleet template.
type fleetKey struct {
	kind apps.FleetKind
	seed uint64
}

// snapshotCache holds the process-wide boot templates. wearos.Config is a
// comparable value of scalars, so it serves directly as the device config
// fingerprint; a different LogCapacity or aging model keys a different
// snapshot, which is exactly the invalidation rule we want.
type snapshotCache struct {
	mu     sync.Mutex
	fleets map[fleetKey]*apps.FleetTemplate
	devs   map[wearos.Config]*wearos.Snapshot
}

// cacheLimit bounds each cache map. Real processes use a handful of
// (kind, seed, config) combinations; a runaway caller cycling seeds (e.g. a
// fuzz test) must not grow the maps without bound, so hitting the limit
// evicts one resident entry to make room — correctness never depends on a
// hit. (Evicting a single entry, not the whole map: dropping everything on
// overflow would force every concurrent run sharing the cache to rebuild
// its template on its next miss.)
const cacheLimit = 16

// evictOne removes one arbitrary entry so an insert stays within
// cacheLimit. Go's map iteration order is effectively random, which is a
// perfectly good eviction policy for a cache whose working set fits many
// times over in normal operation.
func evictOne[K comparable, V any](m map[K]V) {
	for k := range m {
		delete(m, k)
		return
	}
}

// bootCache is the process-wide template store. Templates are immutable
// once built, so sharing across concurrent farm runs is safe.
var bootCache snapshotCache

// fleetTemplate returns the shared population template for (kind, seed),
// building it on miss. hit reports whether it was already cached.
func (c *snapshotCache) fleetTemplate(kind apps.FleetKind, seed uint64) (t *apps.FleetTemplate, hit bool, err error) {
	key := fleetKey{kind: kind, seed: seed}
	c.mu.Lock()
	if t = c.fleets[key]; t != nil {
		c.mu.Unlock()
		return t, true, nil
	}
	// Build under the lock: concurrent workers missing on the same key must
	// not build (and race to publish) duplicate templates, and construction
	// is a one-time cost per run.
	t, err = apps.NewFleetTemplate(kind, seed)
	if err != nil {
		c.mu.Unlock()
		return nil, false, err
	}
	if len(c.fleets) >= cacheLimit {
		evictOne(c.fleets)
	}
	if c.fleets == nil {
		c.fleets = make(map[fleetKey]*apps.FleetTemplate)
	}
	c.fleets[key] = t
	c.mu.Unlock()
	return t, false, nil
}

// deviceSnapshot returns the post-boot snapshot for the given device
// configuration, booting and snapshotting a template device on miss.
func (c *snapshotCache) deviceSnapshot(cfg wearos.Config) (s *wearos.Snapshot, hit bool, err error) {
	c.mu.Lock()
	if s = c.devs[cfg]; s != nil {
		c.mu.Unlock()
		return s, true, nil
	}
	s, err = wearos.BootSnapshot(cfg)
	if err != nil {
		c.mu.Unlock()
		return nil, false, err
	}
	if len(c.devs) >= cacheLimit {
		evictOne(c.devs)
	}
	if c.devs == nil {
		c.devs = make(map[wearos.Config]*wearos.Snapshot)
	}
	c.devs[cfg] = s
	c.mu.Unlock()
	return s, false, nil
}
