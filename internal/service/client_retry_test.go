package service

// Internal tests for the client's retry loop and the coordinator's upload
// backpressure: they reach the sleep/jitter seams and the pending-upload
// counter directly, which the external protocol tests cannot.

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/farm"
)

// stubbedClient returns a client whose backoff sleeps are recorded instead
// of slept and whose jitter is pinned to the top of the range.
func stubbedClient(base string, p retryPolicy) (*Client, *[]time.Duration) {
	var slept []time.Duration
	c := NewClient(base, nil)
	c.retry = p
	c.sleep = func(d time.Duration) { slept = append(slept, d) }
	c.jitter = func() float64 { return 1.0 }
	return c, &slept
}

func TestClientRetriesTransient5xx(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, `{"error":"transient"}`, http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte("[]"))
	}))
	defer ts.Close()

	c, slept := stubbedClient(ts.URL, retryPolicy{maxAttempts: 5, baseDelay: 10 * time.Millisecond, maxDelay: time.Second})
	if _, err := c.Campaigns(); err != nil {
		t.Fatalf("campaigns after transient errors: %v", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d calls, want 3", calls.Load())
	}
	// Exponential schedule with jitter pinned high: 10ms then 20ms.
	if len(*slept) != 2 || (*slept)[0] != 10*time.Millisecond || (*slept)[1] != 20*time.Millisecond {
		t.Fatalf("backoffs = %v, want [10ms 20ms]", *slept)
	}
}

func TestClientRetriesConnectionRefused(t *testing.T) {
	// A server that has already closed: every dial is refused.
	ts := httptest.NewServer(http.NotFoundHandler())
	base := ts.URL
	ts.Close()

	c, slept := stubbedClient(base, retryPolicy{maxAttempts: 3, baseDelay: time.Millisecond, maxDelay: time.Second})
	_, err := c.Campaigns()
	if err == nil {
		t.Fatal("expected transport error")
	}
	if len(*slept) != 2 {
		t.Fatalf("slept %d times, want 2 (3 attempts)", len(*slept))
	}
}

func TestClientDoesNotRetryDrain(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeError(w, http.StatusServiceUnavailable, ErrShuttingDown)
	}))
	defer ts.Close()

	c, slept := stubbedClient(ts.URL, retryPolicy{maxAttempts: 5, baseDelay: time.Millisecond, maxDelay: time.Second})
	_, err := c.Lease("w1")
	if !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("err = %v, want ErrShuttingDown", err)
	}
	if calls.Load() != 1 || len(*slept) != 0 {
		t.Fatalf("drain signal was retried: %d calls, %d sleeps", calls.Load(), len(*slept))
	}
}

func TestClientHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "2")
			writeError(w, http.StatusTooManyRequests, ErrThrottled)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	defer ts.Close()

	c, slept := stubbedClient(ts.URL, retryPolicy{maxAttempts: 3, baseDelay: time.Millisecond, maxDelay: time.Second})
	if err := c.Heartbeat("l1"); err != nil {
		t.Fatalf("heartbeat after throttle: %v", err)
	}
	if len(*slept) != 1 || (*slept)[0] != 2*time.Second {
		t.Fatalf("backoffs = %v, want the server's 2s Retry-After hint", *slept)
	}
}

func TestBackoffBounds(t *testing.T) {
	p := retryPolicy{baseDelay: 100 * time.Millisecond, maxDelay: time.Second}
	low := func() float64 { return 0 }
	high := func() float64 { return 1 }
	if got := p.backoff(0, low); got != 50*time.Millisecond {
		t.Errorf("backoff(0, low) = %v, want 50ms", got)
	}
	if got := p.backoff(0, high); got != 100*time.Millisecond {
		t.Errorf("backoff(0, high) = %v, want 100ms", got)
	}
	// Far past the doubling range the delay pins to maxDelay.
	if got := p.backoff(40, high); got != time.Second {
		t.Errorf("backoff(40, high) = %v, want the 1s cap", got)
	}
}

// TestUploadBackpressure saturates the pending-upload gate and checks the
// whole path: ErrThrottled at the coordinator, 429 + Retry-After on the
// wire, the throttle counter, and acceptance of the retried identical
// upload once the pipeline drains.
func TestUploadBackpressure(t *testing.T) {
	coord, err := NewCoordinator(Options{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Shutdown()
	coord.maxPending = 1
	spec := CampaignSpec{Seed: 1, Campaigns: "A", Packages: []string{"com.heartwatch.wear"}, Quick: 10}
	if _, err := coord.Submit(spec); err != nil {
		t.Fatal(err)
	}
	grant, err := coord.Lease("w1")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := grant.Spec.Plan()
	if err != nil {
		t.Fatal(err)
	}
	sr, err := plan.NewExecutor().ExecuteShard(grant.Shard)
	if err != nil {
		t.Fatal(err)
	}
	record, err := farm.EncodeShardRecord(grant.Shard, sr)
	if err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(Handler(coord))
	defer ts.Close()
	client, slept := stubbedClient(ts.URL, retryPolicy{maxAttempts: 2, baseDelay: time.Millisecond, maxDelay: time.Second})

	// Saturate the gate, then upload: the first attempt must answer 429
	// with the Retry-After hint, and the client-level retry must succeed
	// once the pipeline drains.
	coord.mu.Lock()
	coord.pendingUploads = 1
	coord.mu.Unlock()
	go func() {
		time.Sleep(50 * time.Millisecond)
		coord.mu.Lock()
		coord.pendingUploads = 0
		coord.mu.Unlock()
	}()
	realSleep := *slept
	client.sleep = func(d time.Duration) {
		realSleep = append(realSleep, d)
		time.Sleep(100 * time.Millisecond) // let the drain goroutine run
	}
	if err := client.Complete(grant.LeaseID, grant.Fingerprint, record); err != nil {
		t.Fatalf("upload after throttle: %v", err)
	}
	if len(realSleep) != 1 || realSleep[0] != time.Second {
		t.Fatalf("backoffs = %v, want the 1s Retry-After hint", realSleep)
	}
	snap := coord.Telemetry().Snapshot()
	if snap.Counters["service_uploads_throttled_total"] != 1 {
		t.Fatalf("throttle counter = %d, want 1", snap.Counters["service_uploads_throttled_total"])
	}
	// The throttled attempt must not have touched the lease: the retried
	// upload was accepted under the same lease ID.
	info, err := coord.Campaign(grant.CampaignID)
	if err != nil {
		t.Fatal(err)
	}
	if info.Done != 1 {
		t.Fatalf("done = %d, want 1", info.Done)
	}
}
