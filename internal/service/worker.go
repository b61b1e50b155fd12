package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"sync"
	"time"

	"repro/internal/farm"
)

// WorkerOptions configures one worker process's lease loop.
type WorkerOptions struct {
	// Coordinator is the base URL of the farmd API.
	Coordinator string
	// Name identifies this worker in leases and liveness metrics.
	Name string
	// Poll is the idle backoff between empty lease polls (default 500ms).
	Poll time.Duration
	// ExitWhenIdle stops the loop the first time the queue answers "no
	// work" — the batch mode scripts use (a service worker keeps polling).
	ExitWhenIdle bool
	// Log receives progress lines; nil discards them.
	Log *log.Logger
	// client overrides the HTTP client (tests).
	client *Client
}

// WorkerStats summarizes one RunWorker loop.
type WorkerStats struct {
	// Executed counts shards completed and accepted by the coordinator.
	Executed int
	// Lost counts shards whose lease was reclaimed before upload (the
	// result was discarded; another worker re-executes the shard).
	Lost int
	// Intents totals intents sent across accepted shards.
	Intents int
}

// RunWorker executes the worker side of the lease protocol until ctx is
// cancelled or (with ExitWhenIdle) the queue drains:
//
//	lease -> verify fingerprint -> execute -> upload, heartbeating throughout.
//
// The worker re-plans every campaign spec locally and refuses a lease whose
// fingerprint differs from its own plan's — executing a shard from the
// wrong run is impossible by construction, not by trust. The worker keeps
// one executor (executorSlot), so consecutive shards of a campaign share a
// plan and a hot device, and serving another campaign replaces both.
//
// Cancelling ctx drains: the in-flight shard is finished and uploaded
// (results are never thrown away at shutdown) and the loop returns. A
// worker killed outright instead simply stops heartbeating and the reaper
// re-queues its shard.
func RunWorker(ctx context.Context, opts WorkerOptions) (WorkerStats, error) {
	return runWorker(ctx, opts, &executorSlot{})
}

// executorSlot holds the executor for the campaign a worker is serving, so
// a long-running worker holds one re-planned fleet and one hot device
// however many campaigns it serves.
type executorSlot struct {
	fingerprint string
	ex          *farm.Executor
}

// get returns the executor for grant's campaign. A lease carrying a
// different fingerprint than the slot holds re-plans the spec locally and
// replaces the executor; a lease whose fingerprint differs from that local
// plan's is refused.
func (s *executorSlot) get(grant *LeaseGrant) (*farm.Executor, error) {
	if s.ex != nil && s.fingerprint == grant.Fingerprint {
		return s.ex, nil
	}
	p, err := grant.Spec.Plan()
	if err != nil {
		return nil, fmt.Errorf("service: plan campaign %s: %w", grant.CampaignID, err)
	}
	if fp := fmt.Sprintf("%016x", p.Fingerprint()); fp != grant.Fingerprint {
		return nil, fmt.Errorf("service: lease %s fingerprint %s does not match local plan %s",
			grant.LeaseID, grant.Fingerprint, fp)
	}
	s.fingerprint, s.ex = grant.Fingerprint, p.NewExecutor()
	return s.ex, nil
}

func runWorker(ctx context.Context, opts WorkerOptions, slot *executorSlot) (WorkerStats, error) {
	var stats WorkerStats
	if opts.Poll <= 0 {
		opts.Poll = 500 * time.Millisecond
	}
	if opts.Name == "" {
		opts.Name = "worker"
	}
	logger := opts.Log
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	client := opts.client
	if client == nil {
		client = NewClient(opts.Coordinator, nil)
	}

	for {
		if ctx.Err() != nil {
			return stats, nil
		}
		grant, err := client.Lease(opts.Name)
		if err != nil {
			if errors.Is(err, ErrShuttingDown) {
				logger.Printf("coordinator draining; worker exiting")
				return stats, nil
			}
			return stats, fmt.Errorf("service: lease: %w", err)
		}
		if grant == nil {
			if opts.ExitWhenIdle {
				return stats, nil
			}
			select {
			case <-ctx.Done():
				return stats, nil
			case <-time.After(opts.Poll):
			}
			continue
		}

		executor, err := slot.get(grant)
		if err != nil {
			// Unplannable, or the lease belongs to a different run than the
			// spec plans to — refuse it rather than upload foreign data.
			client.Release(grant.LeaseID)
			return stats, err
		}

		logger.Printf("lease %s: campaign %s shard %d (%s)", grant.LeaseID, grant.CampaignID, grant.Shard, grant.Key)

		// Heartbeat for as long as the shard runs — even through a drain,
		// since the result is still going to be uploaded.
		hbCtx, stopHB := context.WithCancel(context.Background())
		var hbWG sync.WaitGroup
		hbWG.Add(1)
		go func() {
			defer hbWG.Done()
			interval := time.Duration(grant.TTLSeconds * float64(time.Second) / 3)
			if interval <= 0 {
				interval = time.Second
			}
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-hbCtx.Done():
					return
				case <-t.C:
					if err := client.Heartbeat(grant.LeaseID); err != nil {
						logger.Printf("heartbeat %s: %v", grant.LeaseID, err)
						if errors.Is(err, ErrLeaseGone) {
							return
						}
					}
				}
			}
		}()

		sr, execErr := executor.ExecuteShard(grant.Shard)
		stopHB()
		hbWG.Wait()
		if execErr != nil {
			client.Release(grant.LeaseID)
			return stats, fmt.Errorf("service: execute shard %d of %s: %w", grant.Shard, grant.CampaignID, execErr)
		}
		record, err := farm.EncodeShardRecord(grant.Shard, sr)
		if err != nil {
			client.Release(grant.LeaseID)
			return stats, fmt.Errorf("service: encode shard record: %w", err)
		}
		switch err := client.Complete(grant.LeaseID, grant.Fingerprint, record); {
		case err == nil:
			stats.Executed++
			stats.Intents += sr.Sent
			logger.Printf("completed shard %d (%s): %d intents", grant.Shard, grant.Key, sr.Sent)
		case errors.Is(err, ErrLeaseGone):
			// Reclaimed mid-run (slow shard, short TTL, or a coordinator
			// restart). The shard is someone else's now; the re-execution
			// produces identical bytes, so dropping this copy is safe.
			stats.Lost++
			logger.Printf("lost lease %s before upload: %v", grant.LeaseID, err)
		case errors.Is(err, ErrShuttingDown):
			// The coordinator recorded nothing; its restart re-queues the
			// shard from the journal.
			logger.Printf("coordinator draining; shard %d not recorded; worker exiting", grant.Shard)
			return stats, nil
		default:
			return stats, fmt.Errorf("service: upload shard %d of %s: %w", grant.Shard, grant.CampaignID, err)
		}

		if ctx.Err() != nil {
			logger.Printf("drained; worker exiting after %d shards", stats.Executed)
			return stats, nil
		}
	}
}
