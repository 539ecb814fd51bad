// Package client is the typed Go client for the chimerad HTTP API
// (internal/server): submission, status, results, cancellation, SSE-free
// polling and metrics scraping, with retry and exponential backoff on
// transient failures.
//
// Retry policy: idempotent requests (GET, DELETE) are retried on
// transport errors and on 429/503 responses. POST submissions are
// retried only on 429/503 — responses that prove the server did NOT
// admit the job — and never after any other response or transport
// error, where the submission may already have committed. Backoff is
// exponential with full jitter and honors Retry-After; an unparseable
// Retry-After surfaces as a typed *RetryAfterError instead of being
// silently replaced by backoff.
//
// A client talks to one base URL: a chimerad, or a chimerafront whose
// ring walk is the fleet's failover path (docs/cluster.md).
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"chimera/internal/server"
)

// APIError is a non-2xx response decoded from the server's error
// envelope.
type APIError struct {
	// StatusCode is the HTTP status.
	StatusCode int
	// Message is the server's error string.
	Message string
}

// Error renders the status and message.
func (e *APIError) Error() string {
	return fmt.Sprintf("chimerad: %d: %s", e.StatusCode, e.Message)
}

// RetryAfterError reports a retriable response (429/503) whose
// Retry-After header could not be parsed as non-negative integer
// seconds. The client refuses to guess a wait it cannot honor — the
// request fails with this typed error instead of silently substituting
// exponential backoff, so a misconfigured proxy or server surfaces at
// the first occurrence rather than as mystery latency.
type RetryAfterError struct {
	// Value is the unparseable Retry-After header value.
	Value string
	// StatusCode is the response status that carried it.
	StatusCode int
	// Response is the decoded error envelope of that response.
	Response error
}

// Error renders the offending header value and status.
func (e *RetryAfterError) Error() string {
	return fmt.Sprintf("chimerad: %d with unparseable Retry-After %q", e.StatusCode, e.Value)
}

// Unwrap exposes the response's error envelope.
func (e *RetryAfterError) Unwrap() error { return e.Response }

// Client talks to one chimerad (or chimerafront) base URL. The zero
// value is not usable; construct with New. A Client is safe for
// concurrent use.
type Client struct {
	base  string
	hc    *http.Client
	max   int
	delay time.Duration
	sleep func(context.Context, time.Duration) error
	rnd   func() float64
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying http.Client.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithMaxAttempts bounds the total tries per request (default 4).
func WithMaxAttempts(n int) Option {
	return func(c *Client) {
		if n > 0 {
			c.max = n
		}
	}
}

// WithBaseDelay sets the first backoff step (default 100 ms); step i
// waits roughly BaseDelay·2^i, full-jittered into [d/2, d].
func WithBaseDelay(d time.Duration) Option {
	return func(c *Client) {
		if d > 0 {
			c.delay = d
		}
	}
}

// WithSleep substitutes the inter-attempt wait — tests inject a
// recording fake. The function must honor ctx cancellation.
func WithSleep(fn func(ctx context.Context, d time.Duration) error) Option {
	return func(c *Client) { c.sleep = fn }
}

// WithRand substitutes the jitter source (a func in [0,1)).
func WithRand(fn func() float64) Option {
	return func(c *Client) { c.rnd = fn }
}

// New builds a client for the given base URL ("http://host:port").
func New(base string, opts ...Option) *Client {
	c := &Client{
		base:  base,
		hc:    &http.Client{Timeout: 5 * time.Minute},
		max:   4,
		delay: 100 * time.Millisecond,
		rnd:   rand.Float64,
	}
	c.sleep = func(ctx context.Context, d time.Duration) error {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// parseRetryAfter interprets a Retry-After header: -1 for an absent
// header, the non-negative seconds value otherwise. Anything else
// (HTTP-dates included — chimerad never sends them) is a parse error
// the caller must surface.
func parseRetryAfter(v string) (int, error) {
	if v == "" {
		return -1, nil
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return -1, fmt.Errorf("unparseable Retry-After %q", v)
	}
	return secs, nil
}

// backoff computes the jittered wait before attempt+1 (attempt is
// 0-based), preferring the server's Retry-After (retryAfterSecs >= 0)
// when present.
func (c *Client) backoff(attempt, retryAfterSecs int) time.Duration {
	d := c.delay << uint(attempt)
	if retryAfterSecs >= 0 {
		d = time.Duration(retryAfterSecs) * time.Second
		if d == 0 {
			d = c.delay
		}
	}
	// Full jitter into [d/2, d] keeps retries spread out while retaining
	// the exponential envelope.
	half := d / 2
	return half + time.Duration(c.rnd()*float64(half))
}

// retriableStatus reports whether a response status signals a transient
// condition that is safe to retry for any method: the server refused to
// take the request at all.
func retriableStatus(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
}

// do issues one request, retrying per the package policy.
// retryTransport additionally retries transport-level failures — set
// only for idempotent methods.
func (c *Client) do(ctx context.Context, method, path string, body []byte, retryTransport bool) (*http.Response, error) {
	var lastErr error
	for attempt := 0; attempt < c.max; attempt++ {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
		if err != nil {
			return nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			lastErr = err
			// A cancelled request stops; a non-idempotent one may
			// already have committed.
			if ctx.Err() != nil || !retryTransport {
				return nil, err
			}
			if err := c.sleep(ctx, c.backoff(attempt, -1)); err != nil {
				return nil, err
			}
			continue
		}
		if retriableStatus(resp.StatusCode) && attempt < c.max-1 {
			retryAfterSecs, perr := parseRetryAfter(resp.Header.Get("Retry-After"))
			if perr != nil {
				return nil, &RetryAfterError{
					Value:      resp.Header.Get("Retry-After"),
					StatusCode: resp.StatusCode,
					Response:   decodeError(resp),
				}
			}
			lastErr = decodeError(resp)
			if err := c.sleep(ctx, c.backoff(attempt, retryAfterSecs)); err != nil {
				return nil, err
			}
			continue
		}
		return resp, nil
	}
	return nil, fmt.Errorf("chimerad: giving up after %d attempts: %w", c.max, lastErr)
}

// decodeError drains a non-2xx response into an APIError.
func decodeError(resp *http.Response) error {
	defer resp.Body.Close()
	var body struct {
		Error string `json:"error"`
	}
	msg := resp.Status
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&body); err == nil && body.Error != "" {
		msg = body.Error
	}
	return &APIError{StatusCode: resp.StatusCode, Message: msg}
}

// decodeInto decodes a 2xx JSON response, or returns the APIError.
func decodeInto(resp *http.Response, v any) error {
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return decodeError(resp)
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// Submit posts one job spec and returns the admitted job's status.
// Retries only on 429/503 (the server provably did not admit the job).
func (c *Client) Submit(ctx context.Context, spec server.JobSpec) (server.JobStatus, error) {
	return c.submit(ctx, spec, "")
}

// SubmitWait posts one job spec with ?wait=1: the call blocks until the
// job is terminal and returns its final status.
func (c *Client) SubmitWait(ctx context.Context, spec server.JobSpec) (server.JobStatus, error) {
	return c.submit(ctx, spec, "?wait=1")
}

// submit implements Submit and SubmitWait.
func (c *Client) submit(ctx context.Context, spec server.JobSpec, query string) (server.JobStatus, error) {
	var st server.JobStatus
	body, err := json.Marshal(spec)
	if err != nil {
		return st, err
	}
	resp, err := c.do(ctx, http.MethodPost, "/api/v1/jobs"+query, body, false)
	if err != nil {
		return st, err
	}
	return st, decodeInto(resp, &st)
}

// Status fetches one job's current status.
func (c *Client) Status(ctx context.Context, id string) (server.JobStatus, error) {
	var st server.JobStatus
	resp, err := c.do(ctx, http.MethodGet, "/api/v1/jobs/"+id, nil, true)
	if err != nil {
		return st, err
	}
	return st, decodeInto(resp, &st)
}

// List fetches every retained job's status in submission order.
func (c *Client) List(ctx context.Context) ([]server.JobStatus, error) {
	var out []server.JobStatus
	resp, err := c.do(ctx, http.MethodGet, "/api/v1/jobs", nil, true)
	if err != nil {
		return nil, err
	}
	return out, decodeInto(resp, &out)
}

// Result fetches a done job's raw result payload (the deterministic
// JobResult JSON).
func (c *Client) Result(ctx context.Context, id string) ([]byte, error) {
	resp, err := c.do(ctx, http.MethodGet, "/api/v1/jobs/"+id+"/result", nil, true)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// Trace streams a traced job's Perfetto JSON into w.
func (c *Client) Trace(ctx context.Context, id string, w io.Writer) error {
	resp, err := c.do(ctx, http.MethodGet, "/api/v1/jobs/"+id+"/trace", nil, true)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	defer resp.Body.Close()
	_, err = io.Copy(w, resp.Body)
	return err
}

// Cancel requests cancellation of one job.
func (c *Client) Cancel(ctx context.Context, id string) error {
	resp, err := c.do(ctx, http.MethodDelete, "/api/v1/jobs/"+id, nil, true)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusAccepted {
		return decodeError(resp)
	}
	resp.Body.Close()
	return nil
}

// Metrics scrapes /metrics and returns the Prometheus text body.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	resp, err := c.do(ctx, http.MethodGet, "/metrics", nil, true)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", decodeError(resp)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

// Await polls a job's status every interval until it reaches a terminal
// state (or ctx is cancelled).
func (c *Client) Await(ctx context.Context, id string, interval time.Duration) (server.JobStatus, error) {
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	for {
		st, err := c.Status(ctx, id)
		if err != nil {
			return st, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		if err := c.sleep(ctx, interval); err != nil {
			return st, err
		}
	}
}
