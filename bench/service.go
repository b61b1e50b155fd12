package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/farm"
	"repro/internal/service"
)

// httpRecord is one request the coordinator served, as the benchmark's
// middleware saw it.
type httpRecord struct {
	Route  string
	Lease  string // lease ID: granted by a lease request, or named in the path
	Key    string // shard key of a grant
	Status int
	// ReqBytes and RespBytes count body bytes.
	ReqBytes, RespBytes int64
	Start, End          time.Time
}

// ok reports whether the request succeeded; a 204 "no work" answer to a
// lease request is a 2xx like any other.
func (rc httpRecord) ok() bool { return rc.Status >= 200 && rc.Status < 300 }

// httpRecorder is middleware around service.Handler that records route,
// lease ID, status, bytes and server-side latency of every request.
type httpRecorder struct {
	mu   sync.Mutex
	recs []httpRecord
}

func (hr *httpRecorder) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rc := httpRecord{Start: time.Now()}
		rc.Route, rc.Lease = route(r)
		body := &countingReader{r: r.Body}
		r.Body = body
		cw := &captureWriter{ResponseWriter: w, status: http.StatusOK, keep: rc.Route == "lease"}
		next.ServeHTTP(cw, r)
		rc.End = time.Now()
		rc.Status, rc.ReqBytes, rc.RespBytes = cw.status, body.n, cw.n
		if rc.Route == "lease" && cw.status == http.StatusOK {
			var g service.LeaseGrant
			if json.Unmarshal(cw.body.Bytes(), &g) == nil {
				rc.Lease, rc.Key = g.LeaseID, g.Key.String()
			}
		}
		hr.mu.Lock()
		hr.recs = append(hr.recs, rc)
		hr.mu.Unlock()
	})
}

// records returns the recorded requests ordered by start time.
func (hr *httpRecorder) records() []httpRecord {
	hr.mu.Lock()
	recs := append([]httpRecord(nil), hr.recs...)
	hr.mu.Unlock()
	sort.Slice(recs, func(a, b int) bool { return recs[a].Start.Before(recs[b].Start) })
	return recs
}

// route names the API route of r and the lease ID its path carries.
func route(r *http.Request) (name, lease string) {
	p := strings.TrimPrefix(r.URL.Path, "/api/v1/")
	segs := strings.Split(p, "/")
	switch {
	case p == "leases":
		return "lease", ""
	case segs[0] == "leases" && len(segs) == 3:
		return segs[2], segs[1]
	case segs[0] == "campaigns" && len(segs) == 3:
		return segs[2], ""
	case segs[0] == "campaigns":
		return "campaign", ""
	}
	return "other", ""
}

type countingReader struct {
	r io.ReadCloser
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) Close() error { return c.r.Close() }

// captureWriter records the status and size of a response, and keeps the
// body when asked (lease grants, to learn the lease ID and shard key).
type captureWriter struct {
	http.ResponseWriter
	status int
	n      int64
	keep   bool
	body   bytes.Buffer
}

func (c *captureWriter) WriteHeader(status int) {
	c.status = status
	c.ResponseWriter.WriteHeader(status)
}

func (c *captureWriter) Write(p []byte) (int, error) {
	if c.keep {
		c.body.Write(p)
	}
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// serviceRun is what a traced service-wear run needs beyond the rep.
type serviceRun struct {
	start    time.Time // timed run began
	exportAt time.Time // export bytes in hand
	recs     []httpRecord
	board    farm.StatusSnapshot
	// Read from Coordinator.Telemetry().
	throttled, expired uint64
}

// serviceRep runs service-wear: one process hosts a durable coordinator
// behind service.Handler on a loopback listener, takes the spec through
// Submit, and two RunWorker loops drain it; the run ends when Client.Export
// returns. inject, when non-nil, wraps the handler inside the recording
// middleware (tests use it to inject faults).
func serviceRep(j job, t0 time.Time, inject func(http.Handler) http.Handler) (*rep, *serviceRun, error) {
	spec := j.Specs[0]
	dir, err := os.MkdirTemp(j.WorkDir, "coordinator-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	coord, err := service.NewCoordinator(service.Options{DataDir: dir})
	if err != nil {
		return nil, nil, err
	}
	defer coord.Shutdown()
	rec := &httpRecorder{}
	h := service.Handler(coord)
	if inject != nil {
		h = inject(h)
	}
	srv := httptest.NewServer(rec.wrap(h))
	defer srv.Close()
	info, err := coord.Submit(spec)
	if err != nil {
		return nil, nil, err
	}

	r := &rep{SetupS: time.Since(t0).Seconds()}
	if j.SetupOnly {
		return r, nil, nil
	}
	run := &serviceRun{}
	w := openWindow()
	run.start = w.start
	intents, err := runWorkers(srv.URL)
	var export []byte
	if err == nil {
		export, err = service.NewClient(srv.URL, nil).Export(info.ID)
	}
	run.exportAt = time.Now()
	r.Hash = sha256Hex(export)
	w.close(r)

	run.recs = rec.records()
	for _, rc := range run.recs {
		r.Ops++
		if !rc.ok() {
			r.FailedOps++
		}
	}
	if err != nil {
		return r, run, err
	}
	r.Events = intents
	cfg, err := spec.FarmConfig()
	if err != nil {
		return r, run, err
	}
	if r.Expected, err = planIntents([]farm.Config{cfg}); err != nil {
		return r, run, err
	}
	if run.board, err = coord.Status(info.ID); err != nil {
		return r, run, err
	}
	tel := coord.Telemetry()
	run.throttled = tel.Counter("service_uploads_throttled_total").Value()
	run.expired = tel.Counter("service_leases_expired_total").Value()
	return r, run, nil
}

// runWorkers runs the two service workers until the queue drains and
// returns the intents they sent.
func runWorkers(url string) (int, error) {
	var wg sync.WaitGroup
	stats := make([]service.WorkerStats, workers)
	errs := make([]error, workers)
	for i := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats[i], errs[i] = service.RunWorker(context.Background(), service.WorkerOptions{
				Coordinator:  url,
				Name:         fmt.Sprintf("worker-%d", i),
				ExitWhenIdle: true,
			})
		}()
	}
	wg.Wait()
	intents := 0
	for i := range stats {
		if errs[i] != nil {
			return 0, errs[i]
		}
		intents += stats[i].Intents
	}
	return intents, nil
}
