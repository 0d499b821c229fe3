// Package client is the typed Go client of the watersrvd HTTP API.
//
// The synchronous helpers (Plan, Cosim, Sweep, MonteCarlo, Audit)
// mirror the server's synchronous endpoints: they block until the
// simulation finishes, transparently falling back to the async job API
// when the server answers 202 because the request outlived its sync
// budget.
// The job helpers (SubmitJob, Job, Result, Cancel, WaitJob) expose
// the async surface directly for callers that want to multiplex work;
// SubmitJob speaks the canonical typed job envelope ({"type": ...,
// "request": ...}) and accepts every request kind.
//
// Server errors arrive as *APIError carrying the stable machine
// code of the JSON error envelope. Capacity errors — 429 (queue
// full, load shed) and 503 (overloaded, draining) — are retried
// automatically with full-jitter exponential backoff, using any
// Retry-After the server sends as a floor, before surfacing.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"waterimm/internal/api"
)

// Client talks to one watersrvd instance. The zero value is not
// usable; construct with New.
type Client struct {
	base *url.URL
	http *http.Client

	// MaxRetries bounds the automatic retries of 429/503 responses
	// (queue full, shed, draining). Default 4.
	MaxRetries int
	// RetryBackoff seeds the exponential backoff: after the i-th
	// failed attempt the client sleeps a uniformly random duration in
	// [0, min(RetryBackoffMax, RetryBackoff·2^i)] (full jitter), but
	// never less than the server's Retry-After. Default 250 ms.
	RetryBackoff time.Duration
	// RetryBackoffMax caps the backoff ceiling. Default 4 s.
	RetryBackoffMax time.Duration
	// PollInterval paces WaitJob's status polling. Default 50 ms.
	PollInterval time.Duration
}

// New returns a client for the server at baseURL (e.g.
// "http://localhost:8080"). httpClient may be nil for
// http.DefaultClient.
func New(baseURL string, httpClient *http.Client) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("client: parse base URL: %w", err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("client: base URL %q needs a scheme and host", baseURL)
	}
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{
		base:            u,
		http:            httpClient,
		MaxRetries:      4,
		RetryBackoff:    250 * time.Millisecond,
		RetryBackoffMax: 4 * time.Second,
		PollInterval:    50 * time.Millisecond,
	}, nil
}

// APIError is a non-2xx server response decoded from the JSON error
// envelope {"error": {"code": ..., "message": ...}}. Dispatch on
// Code, not Message.
type APIError struct {
	StatusCode int    // HTTP status
	Code       string // stable machine code ("queue_full", "not_found", ...)
	Message    string // human-readable detail
	// RequestID is the server's X-Request-Id for this exchange (also
	// present in the error envelope) — quote it when filing a report
	// so the operator can grep the exact request across the router and
	// backend logs.
	RequestID string
}

func (e *APIError) Error() string {
	if e.RequestID != "" {
		return fmt.Sprintf("client: server answered %d %s: %s (request %s)", e.StatusCode, e.Code, e.Message, e.RequestID)
	}
	return fmt.Sprintf("client: server answered %d %s: %s", e.StatusCode, e.Code, e.Message)
}

// Transient reports whether the error is worth retrying: the server
// was up but had no capacity at that moment.
func (e *APIError) Transient() bool {
	return e.StatusCode == http.StatusTooManyRequests ||
		e.StatusCode == http.StatusServiceUnavailable
}

// Job mirrors the server's job snapshot. Result stays raw JSON; the
// typed helpers decode it into the response of the job's kind.
type Job struct {
	ID       string `json:"id"`
	Kind     string `json:"kind"`
	Key      string `json:"key"`
	State    string `json:"state"`
	CacheHit bool   `json:"cache_hit"`
	Deduped  bool   `json:"deduped,omitempty"`
	Error    string `json:"error,omitempty"`
	// ErrorCode is the stable machine code of a failed job
	// ("deadline_exceeded", "shed", "panic", "canceled", "internal").
	ErrorCode string             `json:"error_code,omitempty"`
	Progress  *api.SweepProgress `json:"progress,omitempty"`

	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at,omitempty"`
	FinishedAt  time.Time `json:"finished_at,omitempty"`

	Result json.RawMessage `json:"result,omitempty"`
}

// Terminal reports whether the job has stopped moving.
func (j *Job) Terminal() bool {
	return j.State == "done" || j.State == "failed" || j.State == "canceled"
}

// Plan runs a plan request to completion.
func (c *Client) Plan(ctx context.Context, req *api.PlanRequest) (*api.PlanResponse, error) {
	return syncCall[api.PlanResponse](ctx, c, req)
}

// Cosim runs a co-simulation request to completion.
func (c *Client) Cosim(ctx context.Context, req *api.CosimRequest) (*api.CosimResponse, error) {
	return syncCall[api.CosimResponse](ctx, c, req)
}

// Sweep runs a batched sweep request to completion.
func (c *Client) Sweep(ctx context.Context, req *api.SweepRequest) (*api.SweepResponse, error) {
	return syncCall[api.SweepResponse](ctx, c, req)
}

// MonteCarlo runs a Monte-Carlo uncertainty sweep to completion and
// returns the reduced statistics (quantiles, exceedance probability,
// Sobol indices). Large sample counts routinely outlive the server's
// sync budget; like the other sync helpers this falls through to the
// async job API transparently, but callers wanting progress reporting
// should SubmitJob and poll.
func (c *Client) MonteCarlo(ctx context.Context, req *api.MonteCarloRequest) (*api.MonteCarloResponse, error) {
	return syncCall[api.MonteCarloResponse](ctx, c, req)
}

// Audit runs a chip-roadmap audit synchronously (POST /v1/audit): for
// every (chip, coolant) pair, the first year — under compounding
// power-density growth — the pair fails on critical heat flux or on
// the junction threshold.
func (c *Client) Audit(ctx context.Context, req *api.AuditRequest) (*api.AuditResponse, error) {
	return syncCall[api.AuditResponse](ctx, c, req)
}

// SubmitJob enqueues a request of any kind in api.Kinds — plan,
// cosim, sweep, montecarlo, audit, cosimstream — on the canonical job
// endpoint (POST /v1/jobs) under the typed job envelope, and returns
// the job's initial snapshot (terminal immediately on a cache hit).
func (c *Client) SubmitJob(ctx context.Context, req api.Request) (*Job, error) {
	env, err := api.NewJobEnvelope(req)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	var j Job
	if err := c.do(ctx, http.MethodPost, "/v1/jobs", env, &j); err != nil {
		return nil, err
	}
	return &j, nil
}

// Job fetches the current snapshot of a job.
func (c *Client) Job(ctx context.Context, id string) (*Job, error) {
	var j Job
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, &j); err != nil {
		return nil, err
	}
	return &j, nil
}

// Result fetches a job snapshot including its result payload. While
// the job is still pending the server answers 202 and Result returns
// the snapshot with a nil Result field — poll or use WaitJob.
func (c *Client) Result(ctx context.Context, id string) (*Job, error) {
	var j Job
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id)+"/result", nil, &j); err != nil {
		return nil, err
	}
	return &j, nil
}

// Cancel requests cancellation and returns the post-cancel snapshot.
func (c *Client) Cancel(ctx context.Context, id string) (*Job, error) {
	var j Job
	if err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+url.PathEscape(id), nil, &j); err != nil {
		return nil, err
	}
	return &j, nil
}

// WaitJob polls until the job reaches a terminal state and returns
// its final snapshot including the result payload.
func (c *Client) WaitJob(ctx context.Context, id string) (*Job, error) {
	tick := time.NewTicker(c.PollInterval)
	defer tick.Stop()
	for {
		j, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		if j.Terminal() {
			return c.Result(ctx, id)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-tick.C:
		}
	}
}

// Metrics fetches the engine metrics snapshot as generic JSON.
func (c *Client) Metrics(ctx context.Context) (map[string]json.RawMessage, error) {
	var m map[string]json.RawMessage
	if err := c.do(ctx, http.MethodGet, "/v1/metrics", nil, &m); err != nil {
		return nil, err
	}
	return m, nil
}

// syncCall posts req to its kind's synchronous endpoint (api.Kinds)
// and decodes the bare response as R. A 202 means the request outlived
// the server's sync budget: the job keeps running, so fall through to
// the async API and wait for it there.
func syncCall[R any](ctx context.Context, c *Client, req api.Request) (*R, error) {
	// Every typed helper passes a listed kind that has a sync path.
	k, _ := api.KindByName(req.Kind())
	status, body, header, err := c.roundTrip(ctx, http.MethodPost, k.Path, req)
	if err != nil {
		return nil, err
	}
	switch status {
	case http.StatusOK:
	case http.StatusAccepted:
		var j Job
		if err := decodeInto(body, &j); err != nil {
			return nil, err
		}
		final, err := c.WaitJob(ctx, j.ID)
		if err != nil {
			return nil, err
		}
		if final.State != "done" {
			return nil, fmt.Errorf("client: job %s ended %s: %s", final.ID, final.State, final.Error)
		}
		body = final.Result
	default:
		return nil, apiError(status, body, header)
	}
	var out R
	if err := decodeInto(body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// do performs one API call expecting a 2xx JSON body decoded into
// out (which may be nil to discard it).
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	status, body, header, err := c.roundTrip(ctx, method, path, in)
	if err != nil {
		return err
	}
	if status < 200 || status >= 300 {
		return apiError(status, body, header)
	}
	if out == nil {
		return nil
	}
	return decodeInto(body, out)
}

// roundTrip sends one request, retrying transient 429/503s with
// full-jitter backoff, and returns the final status, body, and
// response headers. Non-2xx statuses are returned, not errors; callers
// map them (202 is meaningful to sync and Result).
func (c *Client) roundTrip(ctx context.Context, method, path string, in any) (int, []byte, http.Header, error) {
	var payload []byte
	if in != nil {
		var err error
		if payload, err = json.Marshal(in); err != nil {
			return 0, nil, nil, fmt.Errorf("client: encode request: %w", err)
		}
	}
	u := *c.base
	u.Path = path
	for attempt := 0; ; attempt++ {
		var body io.Reader
		if payload != nil {
			body = bytes.NewReader(payload)
		}
		req, err := http.NewRequestWithContext(ctx, method, u.String(), body)
		if err != nil {
			return 0, nil, nil, fmt.Errorf("client: build request: %w", err)
		}
		if payload != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.http.Do(req)
		if err != nil {
			return 0, nil, nil, fmt.Errorf("client: %s %s: %w", method, path, err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, nil, nil, fmt.Errorf("client: read response: %w", err)
		}
		if retryable(resp.StatusCode) && attempt < c.MaxRetries {
			select {
			case <-ctx.Done():
				return 0, nil, nil, ctx.Err()
			case <-time.After(c.retryDelay(attempt, retryAfter(resp.Header))):
			}
			continue
		}
		return resp.StatusCode, b, resp.Header, nil
	}
}

// retryable reports whether a status signals a transient capacity
// condition: 429 is this one request turned away (queue full, shed),
// 503 is the whole service overloaded or draining.
func retryable(status int) bool {
	return status == http.StatusTooManyRequests ||
		status == http.StatusServiceUnavailable
}

// retryDelay picks the sleep before retry attempt+1: a uniformly
// random duration up to the exponentially growing ceiling ("full
// jitter", which decorrelates a thundering herd of shed clients), but
// never below the server's own Retry-After hint.
func (c *Client) retryDelay(attempt int, serverHint time.Duration) time.Duration {
	ceiling := c.RetryBackoff
	for i := 0; i < attempt && ceiling < c.RetryBackoffMax; i++ {
		ceiling *= 2
	}
	if c.RetryBackoffMax > 0 && ceiling > c.RetryBackoffMax {
		ceiling = c.RetryBackoffMax
	}
	d := serverHint
	if ceiling > 0 {
		if j := time.Duration(rand.Int64N(int64(ceiling) + 1)); j > d {
			d = j
		}
	}
	return d
}

// retryAfter parses a Retry-After header, either delta-seconds or an
// HTTP-date; absent or malformed values yield 0. Both forms clamp to
// zero at the end: an HTTP-date in the past (or negative delta
// seconds) means "retry now", and must never become a negative
// duration — retryDelay uses the result as a backoff floor, and a
// negative floor would silently disable the floor comparison.
func retryAfter(h http.Header) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	var d time.Duration
	if secs, err := strconv.Atoi(v); err == nil {
		d = time.Duration(secs) * time.Second
	} else if at, err := http.ParseTime(v); err == nil {
		d = time.Until(at)
	}
	if d < 0 {
		return 0
	}
	return d
}

func decodeInto(body []byte, out any) error {
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("client: decode response: %w (body %.120s)", err, body)
	}
	return nil
}

// apiError decodes the error envelope, degrading gracefully when the
// body is not the expected JSON (a proxy error page, say). The request
// ID comes from the envelope when present, else from the X-Request-Id
// response header — either way the client surfaces the server's
// correlation handle.
func apiError(status int, body []byte, header http.Header) error {
	reqID := ""
	if header != nil {
		reqID = header.Get("X-Request-Id")
	}
	var e struct {
		Error struct {
			Code      string `json:"code"`
			Message   string `json:"message"`
			RequestID string `json:"request_id"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error.Code == "" {
		return &APIError{StatusCode: status, Code: "unknown", Message: string(body), RequestID: reqID}
	}
	if e.Error.RequestID != "" {
		reqID = e.Error.RequestID
	}
	return &APIError{StatusCode: status, Code: e.Error.Code, Message: e.Error.Message, RequestID: reqID}
}
