package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Client speaks the coordinator's HTTP API — the worker loop and the farmd
// CLI subcommands share it. Methods translate protocol status codes back
// into the coordinator's sentinel errors through the protocolErrors table
// the handlers answer from, so remote callers branch on the same errors
// in-process callers do.
//
// Transient failures retry transparently with exponential backoff and
// jitter: transport errors (connection refused, reset, timeout), 5xx
// responses other than 503, and 429 throttling (honoring the Retry-After
// header). 503 is the coordinator's drain signal and is never retried —
// a draining coordinator wants its workers to exit, not to hammer it.
type Client struct {
	base  string
	hc    *http.Client
	retry retryPolicy
	// sleep and jitter are test seams; production uses time.Sleep and
	// rand.Float64.
	sleep  func(time.Duration)
	jitter func() float64
}

// retryPolicy bounds the client's transparent retry loop.
type retryPolicy struct {
	// maxAttempts is the total number of tries, including the first.
	maxAttempts int
	// baseDelay is the backoff before the first retry; each subsequent
	// retry doubles it.
	baseDelay time.Duration
	// maxDelay caps the doubling.
	maxDelay time.Duration
}

// backoff is the delay before retry number n (0-based): base·2ⁿ capped at
// maxDelay, jittered uniformly over [d/2, d] so a restarted coordinator is
// not met by all its workers in lockstep.
func (p retryPolicy) backoff(n int, jitter func() float64) time.Duration {
	d := p.baseDelay << n
	if d <= 0 || d > p.maxDelay {
		d = p.maxDelay
	}
	return d/2 + time.Duration(jitter()*float64(d)/2)
}

// NewClient returns a client for the coordinator at base (e.g.
// "http://127.0.0.1:8787"). A nil http.Client gets a sane default with a
// timeout suited to the lease protocol.
func NewClient(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = &http.Client{Timeout: 5 * time.Minute}
	}
	return &Client{
		base:   base,
		hc:     hc,
		retry:  retryPolicy{maxAttempts: 5, baseDelay: 100 * time.Millisecond, maxDelay: 5 * time.Second},
		sleep:  time.Sleep,
		jitter: rand.Float64,
	}
}

// apiError decodes the JSON error envelope and maps status back to its
// sentinel. Where two sentinels share a status (409), it picks the one
// whose text begins the message: every coordinator error wraps its
// sentinel first, so such a message is returned as it is, wrapping the
// sentinel, rather than after the sentinel's text a second time.
func apiError(status int, body []byte) error {
	var eb errorBody
	msg := ""
	if json.Unmarshal(body, &eb) == nil {
		msg = eb.Error
	}
	var base error
	for _, e := range protocolErrors {
		if e.status == status && (base == nil || strings.HasPrefix(msg, e.err.Error())) {
			base = e.err
		}
	}
	if base != nil {
		if rest, ok := strings.CutPrefix(msg, base.Error()); ok {
			return fmt.Errorf("%w%s", base, rest)
		}
		if msg != "" {
			return fmt.Errorf("%w (%s)", base, msg)
		}
		return base
	}
	if msg == "" {
		msg = http.StatusText(status)
	}
	return fmt.Errorf("service: http %d: %s", status, msg)
}

// do issues one request with transparent retries; out (when non-nil)
// receives the decoded 2xx body. It returns the raw body and status for
// callers that need them.
func (c *Client) do(method, path string, in, out any) ([]byte, int, error) {
	var data []byte
	var status int
	var retryAfter time.Duration
	var err error
	for attempt := 0; ; attempt++ {
		data, status, retryAfter, err = c.once(method, path, in, out)
		if !retryableFailure(status, err) || attempt+1 >= c.retry.maxAttempts {
			return data, status, err
		}
		// A Retry-After hint from the coordinator (429 backpressure)
		// overrides the exponential schedule — the server knows its own
		// fsync budget better than our guess does.
		wait := retryAfter
		if wait <= 0 {
			wait = c.retry.backoff(attempt, c.jitter)
		}
		c.sleep(wait)
	}
}

// retryableFailure reports whether a request outcome is worth retrying:
// transport errors (status 0) and transient server-side failures. 503 is
// the drain signal — retrying it would keep a worker alive exactly when
// the coordinator asked it to go away — and 4xx other than 429 are
// protocol outcomes, not failures.
func retryableFailure(status int, err error) bool {
	if err == nil {
		return false
	}
	switch status {
	case 0: // transport: connection refused, reset, timeout
		return true
	case http.StatusTooManyRequests:
		return true
	case http.StatusInternalServerError, http.StatusBadGateway, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// once issues a single HTTP exchange. retryAfter carries the parsed
// Retry-After header (seconds form) when the server sent one.
func (c *Client) once(method, path string, in, out any) ([]byte, int, time.Duration, error) {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return nil, 0, 0, err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return nil, 0, 0, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, 0, err
	}
	defer resp.Body.Close()
	var retryAfter time.Duration
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs >= 0 {
			retryAfter = time.Duration(secs) * time.Second
		}
	}
	data, err := readBody(resp)
	if err != nil {
		return nil, resp.StatusCode, retryAfter, err
	}
	if resp.StatusCode >= 400 {
		return data, resp.StatusCode, retryAfter, apiError(resp.StatusCode, data)
	}
	if out != nil && resp.StatusCode != http.StatusNoContent {
		if err := json.Unmarshal(data, out); err != nil {
			return data, resp.StatusCode, retryAfter, fmt.Errorf("service: decode response: %w", err)
		}
	}
	return data, resp.StatusCode, retryAfter, nil
}

// maxSizedBody bounds the Content-Length readBody allocates up front: a
// paper-scale export is about 2 MiB.
const maxSizedBody = 64 << 20

// readBody reads resp's body into one buffer of exactly its declared length
// when the length is known and sane; io.ReadAll's append growth would
// allocate several times a large export's size. Other bodies go through
// io.ReadAll.
func readBody(resp *http.Response) ([]byte, error) {
	if n := resp.ContentLength; n >= 0 && n <= maxSizedBody {
		data := make([]byte, n)
		if _, err := io.ReadFull(resp.Body, data); err != nil {
			return nil, err
		}
		return data, nil
	}
	return io.ReadAll(resp.Body)
}

// Submit posts a campaign spec and returns the hosted campaign's info.
func (c *Client) Submit(spec CampaignSpec) (CampaignInfo, error) {
	var info CampaignInfo
	_, _, err := c.do(http.MethodPost, "/api/v1/campaigns", spec, &info)
	return info, err
}

// Campaigns lists hosted campaigns in submission order.
func (c *Client) Campaigns() ([]CampaignInfo, error) {
	var infos []CampaignInfo
	_, _, err := c.do(http.MethodGet, "/api/v1/campaigns", nil, &infos)
	return infos, err
}

// Campaign fetches one campaign's info.
func (c *Client) Campaign(id string) (CampaignInfo, error) {
	var info CampaignInfo
	_, _, err := c.do(http.MethodGet, "/api/v1/campaigns/"+url.PathEscape(id), nil, &info)
	return info, err
}

// Export fetches the canonical merged export bytes of a complete campaign.
func (c *Client) Export(id string) ([]byte, error) {
	data, _, err := c.do(http.MethodGet, "/api/v1/campaigns/"+url.PathEscape(id)+"/export", nil, nil)
	return data, err
}

// Triage reads the incremental bucket stream after cursor; wait long-polls.
func (c *Client) Triage(id string, cursor int, wait bool) (TriagePage, error) {
	var page TriagePage
	path := "/api/v1/campaigns/" + url.PathEscape(id) + "/triage?cursor=" + strconv.Itoa(cursor)
	if wait {
		path += "&wait=1"
	}
	_, _, err := c.do(http.MethodGet, path, nil, &page)
	return page, err
}

// Lease requests work. It returns (nil, nil) when the queue is empty — the
// worker should back off and poll again.
func (c *Client) Lease(worker string) (*LeaseGrant, error) {
	var grant LeaseGrant
	_, status, err := c.do(http.MethodPost, "/api/v1/leases", leaseRequest{Worker: worker}, &grant)
	if err != nil {
		return nil, err
	}
	if status == http.StatusNoContent {
		return nil, nil
	}
	return &grant, nil
}

// Heartbeat extends a lease; ErrLeaseGone means the shard was reclaimed.
func (c *Client) Heartbeat(leaseID string) error {
	_, _, err := c.do(http.MethodPost, "/api/v1/leases/"+url.PathEscape(leaseID)+"/heartbeat", struct{}{}, nil)
	return err
}

// Release returns the lease's shard to the queue.
func (c *Client) Release(leaseID string) error {
	_, _, err := c.do(http.MethodPost, "/api/v1/leases/"+url.PathEscape(leaseID)+"/release", struct{}{}, nil)
	return err
}

// Complete uploads an encoded shard record under the lease.
func (c *Client) Complete(leaseID, fingerprint string, record []byte) error {
	up := resultUpload{Fingerprint: fingerprint, Record: json.RawMessage(record)}
	_, _, err := c.do(http.MethodPost, "/api/v1/leases/"+url.PathEscape(leaseID)+"/result", up, nil)
	return err
}
