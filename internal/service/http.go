package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/farm"
	"repro/internal/telemetry"
	"repro/internal/triage"
)

// HTTP surface. All non-2xx responses carry a JSON error body
// {"error": "..."}; the coordinator's sentinel errors map onto status codes
// through one table, protocolErrors, which the client reads backwards:
//
//	POST /api/v1/campaigns                submit a CampaignSpec       -> 201 CampaignInfo
//	GET  /api/v1/campaigns                list campaigns              -> 200 [CampaignInfo]
//	GET  /api/v1/campaigns/{id}           one campaign                -> 200 CampaignInfo | 404
//	GET  /api/v1/campaigns/{id}/export    canonical merged export     -> 200 | 404 | 409 (not complete)
//	GET  /api/v1/campaigns/{id}/triage    bucket stream since ?cursor -> 200 TriagePage (long-poll with ?wait=1)
//	GET  /api/v1/campaigns/{id}/metrics   per-campaign registry       -> 200 Prometheus text | 404
//	GET  /farm?campaign={id}&letter={A}   live shard board            -> 200 | 404
//	POST /api/v1/leases                   request work {worker}       -> 200 LeaseGrant | 204 (no work) | 503 (draining)
//	POST /api/v1/leases/{id}/heartbeat    extend lease                -> 200 {expires} | 410 (reclaimed)
//	POST /api/v1/leases/{id}/release      return shard to queue       -> 204 | 410
//	POST /api/v1/leases/{id}/result       upload shard record         -> 204 | 409 (mismatch) | 410 | 429 (+Retry-After) | 503 (draining)
//
// A POST body larger than maxBodyBytes answers 413 before the coordinator
// sees it, so an oversized upload leaves its lease untouched.
//
// The service routes compose with the telemetry server: Routes returns
// telemetry.Route entries for telemetry.Serve, so farmd's one listener
// serves /metrics, /healthz, the farm board, and the campaign API together.

// maxBodyBytes bounds every POST body the coordinator decodes. A folded
// paper-scale shard record is ~0.1 MB and the largest raw one measured
// 1.4 MB, so the bound only stops a body no honest client sends.
const maxBodyBytes = 64 << 20

// decodeBody decodes r's JSON body into v, reading at most c.maxBody
// bytes. On failure it writes the error response, 413 for an oversized
// body and 400 otherwise, naming what was parsed, and returns false.
//
// A body whose Content-Length is declared and within the bound is read
// into one buffer of exactly that size; only a body of unknown length is
// read by io.ReadAll, whose buffer grows as it fills.
func (c *Coordinator) decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	body := http.MaxBytesReader(w, r.Body, c.maxBody)
	var data []byte
	var err error
	if n := r.ContentLength; n >= 0 && n <= c.maxBody {
		data = make([]byte, n)
		_, err = io.ReadFull(body, data)
	} else {
		data, err = io.ReadAll(body)
	}
	if err == nil {
		err = json.Unmarshal(data, v)
	}
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
		err = fmt.Errorf("body exceeds %d bytes", tooBig.Limit)
	}
	writeError(w, status, fmt.Errorf("service: parse %s: %w", what, err))
	return false
}

// leaseRequest is the body of POST /api/v1/leases.
type leaseRequest struct {
	Worker string `json:"worker"`
}

// resultUpload is the body of POST /api/v1/leases/{id}/result. Record holds
// the EncodeShardRecord bytes verbatim (json.RawMessage keeps them
// byte-exact through the envelope), so the coordinator journals exactly
// what the worker encoded.
type resultUpload struct {
	Fingerprint string          `json:"fingerprint"`
	Record      json.RawMessage `json:"record"`
}

// heartbeatResponse answers a successful heartbeat.
type heartbeatResponse struct {
	Expires time.Time `json:"expires"`
}

// TriagePage is one read of the incremental bucket stream.
type TriagePage struct {
	Updates []triage.BucketUpdate `json:"updates"`
	// Cursor resumes the next read (pass as ?cursor=).
	Cursor int `json:"cursor"`
	// Closed means the campaign is merged: no further updates will arrive.
	Closed bool `json:"closed"`
}

// errorBody is the uniform JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// protocolErrors is the protocol's one sentinel <-> status table. Any
// other coordinator error answers 400.
var protocolErrors = []struct {
	err    error
	status int
}{
	{ErrNotFound, http.StatusNotFound},
	{ErrLeaseGone, http.StatusGone},
	{ErrBadRecord, http.StatusConflict},
	{ErrNotComplete, http.StatusConflict},
	{ErrThrottled, http.StatusTooManyRequests},
	{ErrShuttingDown, http.StatusServiceUnavailable},
}

// writeServiceError answers err with the status of the first
// protocolErrors entry it matches.
func writeServiceError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	for _, e := range protocolErrors {
		if errors.Is(err, e.err) {
			status = e.status
			break
		}
	}
	if status == http.StatusTooManyRequests {
		// Backpressure: tell the uploader when to come back. The hint is
		// deliberately short — the fsync pipeline drains in well under a
		// second; the client's jittered backoff spreads the herd.
		w.Header().Set("Retry-After", "1")
	}
	writeError(w, status, err)
}

// Handler returns the coordinator's full HTTP API as one handler.
func Handler(c *Coordinator) http.Handler {
	mux := http.NewServeMux()
	for _, r := range Routes(c) {
		mux.Handle(r.Pattern, r.Handler)
	}
	return mux
}

// Routes returns the API as telemetry server routes, so farmd mounts the
// campaign API, the live farm board, and /metrics on a single listener.
func Routes(c *Coordinator) []telemetry.Route {
	return []telemetry.Route{
		{Pattern: "POST /api/v1/campaigns", Handler: http.HandlerFunc(c.handleSubmit)},
		{Pattern: "GET /api/v1/campaigns", Handler: http.HandlerFunc(c.handleList)},
		{Pattern: "GET /api/v1/campaigns/{id}", Handler: http.HandlerFunc(c.handleCampaign)},
		{Pattern: "GET /api/v1/campaigns/{id}/export", Handler: http.HandlerFunc(c.handleExport)},
		{Pattern: "GET /api/v1/campaigns/{id}/triage", Handler: http.HandlerFunc(c.handleTriage)},
		{Pattern: "GET /api/v1/campaigns/{id}/metrics", Handler: http.HandlerFunc(c.handleCampaignMetrics)},
		{Pattern: "GET /farm", Handler: http.HandlerFunc(c.handleFarm)},
		{Pattern: "POST /api/v1/leases", Handler: http.HandlerFunc(c.handleLease)},
		{Pattern: "POST /api/v1/leases/{id}/heartbeat", Handler: http.HandlerFunc(c.handleHeartbeat)},
		{Pattern: "POST /api/v1/leases/{id}/release", Handler: http.HandlerFunc(c.handleRelease)},
		{Pattern: "POST /api/v1/leases/{id}/result", Handler: http.HandlerFunc(c.handleResult)},
	}
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec CampaignSpec
	if !c.decodeBody(w, r, "spec", &spec) {
		return
	}
	info, err := c.Submit(spec)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (c *Coordinator) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.Campaigns())
}

func (c *Coordinator) handleCampaign(w http.ResponseWriter, r *http.Request) {
	info, err := c.Campaign(r.PathValue("id"))
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (c *Coordinator) handleExport(w http.ResponseWriter, r *http.Request) {
	data, err := c.Export(r.PathValue("id"))
	if err != nil {
		writeServiceError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	// A known length lets the client read the export into one buffer of
	// its size; without it a multi-MB export would go out chunked.
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.Write(data)
}

func (c *Coordinator) handleTriage(w http.ResponseWriter, r *http.Request) {
	stream, err := c.TriageStream(r.PathValue("id"))
	if err != nil {
		writeServiceError(w, err)
		return
	}
	cursor, _ := strconv.Atoi(r.URL.Query().Get("cursor"))
	var page TriagePage
	if r.URL.Query().Get("wait") != "" {
		page.Updates, page.Cursor, page.Closed = stream.Wait(r.Context(), cursor)
	} else {
		page.Updates, page.Cursor, page.Closed = stream.Since(cursor)
	}
	writeJSON(w, http.StatusOK, page)
}

func (c *Coordinator) handleCampaignMetrics(w http.ResponseWriter, r *http.Request) {
	reg, err := c.CampaignTelemetry(r.PathValue("id"))
	if err != nil {
		writeServiceError(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	reg.WritePrometheus(w)
}

// handleFarm serves the live shard board. ?campaign= selects a campaign by
// ID (default: the most recently submitted); unknown IDs answer 404 with a
// JSON error body. The board itself filters on ?letter=.
func (c *Coordinator) handleFarm(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("campaign")
	if id == "" {
		c.mu.Lock()
		if len(c.order) > 0 {
			id = c.order[len(c.order)-1]
		}
		c.mu.Unlock()
		if id == "" {
			writeError(w, http.StatusNotFound, errors.New("service: no campaigns hosted yet"))
			return
		}
	}
	camp, err := c.lookup(id)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	farm.StatusHandler(camp.board).ServeHTTP(w, r)
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if !c.decodeBody(w, r, "lease request", &req) {
		return
	}
	if req.Worker == "" {
		req.Worker = "anonymous"
	}
	grant, err := c.Lease(req.Worker)
	switch {
	case errors.Is(err, ErrNoWork):
		w.WriteHeader(http.StatusNoContent)
	case err != nil:
		writeServiceError(w, err)
	default:
		writeJSON(w, http.StatusOK, grant)
	}
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	expires, err := c.Heartbeat(r.PathValue("id"))
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, heartbeatResponse{Expires: expires})
}

func (c *Coordinator) handleRelease(w http.ResponseWriter, r *http.Request) {
	if err := c.Release(r.PathValue("id")); err != nil {
		writeServiceError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	var up resultUpload
	if !c.decodeBody(w, r, "result upload", &up) {
		return
	}
	if err := c.Complete(r.PathValue("id"), up.Fingerprint, up.Record); err != nil {
		writeServiceError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
