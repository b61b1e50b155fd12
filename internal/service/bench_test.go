package service

import (
	"fmt"
	"testing"

	"repro/internal/farm"
)

// benchSpec plans two shards so completing one never triggers the final
// merge (the benchmark cycles a single shard forever).
func benchSpec() CampaignSpec {
	return CampaignSpec{
		Seed:      1,
		Campaigns: "A",
		Packages:  []string{"com.heartwatch.wear", "com.strava.wear"},
		Quick:     10,
	}
}

// requeueForBench reloads the campaign's shard table, returning the
// completed shard to pending so the upload benchmark can cycle it (the
// other shard was never leased). Benchmark plumbing only.
func (c *Coordinator) requeueForBench(campID string) {
	c.mu.Lock()
	camp := c.campaigns[campID]
	c.mu.Unlock()
	camp.board.Track(camp.plan, 0)
}

// BenchmarkQueueLeaseCycle measures the coordinator's queue hot path — one
// grant + heartbeat + release round trip on the queue. This is the
// per-shard protocol overhead a worker pays on top of shard execution;
// scripts/bench.sh gates it so queue bookkeeping stays microseconds while
// shard execution stays milliseconds.
func BenchmarkQueueLeaseCycle(b *testing.B) {
	c, err := NewCoordinator(Options{DataDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Shutdown()
	if _, err := c.Submit(benchSpec()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := c.Lease("bench")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Heartbeat(g.LeaseID); err != nil {
			b.Fatal(err)
		}
		if err := c.Release(g.LeaseID); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueueResultRoundTrip measures the durable upload path: grant a
// lease, upload a pre-executed shard record (validated, fsynced to the
// campaign journal, folded into the triage stream), then requeue. The fsync
// dominates — this is the floor on coordinator result throughput.
func BenchmarkQueueResultRoundTrip(b *testing.B) {
	c, err := NewCoordinator(Options{DataDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Shutdown()
	info, err := c.Submit(benchSpec())
	if err != nil {
		b.Fatal(err)
	}
	// Execute the shard the LPT policy will grant first, once, up front.
	g, err := c.Lease("bench")
	if err != nil {
		b.Fatal(err)
	}
	plan, err := g.Spec.Plan()
	if err != nil {
		b.Fatal(err)
	}
	sr, err := plan.NewExecutor().ExecuteShard(g.Shard)
	if err != nil {
		b.Fatal(err)
	}
	record, err := farm.EncodeShardRecord(g.Shard, sr)
	if err != nil {
		b.Fatal(err)
	}
	fp := fmt.Sprintf("%016x", plan.Fingerprint())
	if err := c.Release(g.LeaseID); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := c.Lease("bench")
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Complete(g.LeaseID, fp, record); err != nil {
			b.Fatal(err)
		}
		c.requeueForBench(info.ID)
	}
}
