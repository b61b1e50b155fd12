package core

// Sharding configures parallel campaign execution. The campaign engines
// themselves stay single-threaded (one simulated device is not safe for
// concurrent use); sharding instead partitions a study into independent
// (campaign, package) work units that internal/farm executes on a pool of
// independently-booted devices. The zero value means "not sharded" to the
// CLIs (see Enabled); cmd/report and cmd/qgj then run the farm's aging
// plan, every unit in order on one device that is never reset, the paper's
// single-watch design, metered into the invocation's farm registry.
type Sharding struct {
	// Workers is the number of concurrent shard executors. 0 means unset
	// (not sharded unless a Checkpoint is given); an explicit 1 runs the
	// sharded baseline — same shard plan and merge, one device at a time.
	Workers int
	// Checkpoint, when non-empty, is the journal file progress is written to
	// after every completed shard — the moral equivalent of the paper's
	// scripted 1000-intent chunks that survive device reboots.
	Checkpoint string
	// Resume loads the Checkpoint journal and skips shards it already
	// records, so a killed run continues exactly where it stopped.
	Resume bool
}

// Enabled reports whether the study should run as independent shards
// (parallel workers or a checkpoint journal were requested) rather than
// as the aging plan.
func (s Sharding) Enabled() bool {
	return s.Workers > 0 || s.Checkpoint != "" || s.Resume
}

// NormalizedWorkers returns the effective worker count (minimum 1).
func (s Sharding) NormalizedWorkers() int {
	if s.Workers < 1 {
		return 1
	}
	return s.Workers
}
