package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"chimera/internal/jobspec"
	"chimera/internal/server"
)

// recordedSleeps installs a fake sleeper that records every wait and
// returns instantly, so backoff spacing is asserted without real time.
func recordedSleeps(c *Client) *[]time.Duration {
	var sleeps []time.Duration
	c.sleep = func(ctx context.Context, d time.Duration) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		sleeps = append(sleeps, d)
		return nil
	}
	return &sleeps
}

func TestGetRetriesTransientStatuses(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch hits.Add(1) {
		case 1:
			w.WriteHeader(http.StatusServiceUnavailable)
		case 2:
			w.WriteHeader(http.StatusTooManyRequests)
		default:
			_ = json.NewEncoder(w).Encode(server.JobStatus{ID: "j1", State: server.StateDone})
		}
	}))
	defer ts.Close()

	c := New(ts.URL, WithBaseDelay(100*time.Millisecond), WithRand(func() float64 { return 0 }))
	sleeps := recordedSleeps(c)
	st, err := c.Status(context.Background(), "j1")
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "j1" || st.State != server.StateDone {
		t.Fatalf("bad status %+v", st)
	}
	if hits.Load() != 3 {
		t.Fatalf("server hit %d times, want 3", hits.Load())
	}
	// rnd=0 pins the jitter to the bottom of [d/2, d]: 50ms then 100ms.
	want := []time.Duration{50 * time.Millisecond, 100 * time.Millisecond}
	if len(*sleeps) != len(want) {
		t.Fatalf("slept %v, want %v", *sleeps, want)
	}
	for i, d := range want {
		if (*sleeps)[i] != d {
			t.Fatalf("sleep %d = %v, want %v", i, (*sleeps)[i], d)
		}
	}
}

func TestJitterStaysInUpperHalf(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		_ = json.NewEncoder(w).Encode(server.JobStatus{ID: "j1"})
	}))
	defer ts.Close()

	c := New(ts.URL, WithBaseDelay(100*time.Millisecond), WithRand(func() float64 { return 0.999 }))
	sleeps := recordedSleeps(c)
	if _, err := c.Status(context.Background(), "j1"); err != nil {
		t.Fatal(err)
	}
	if len(*sleeps) != 1 {
		t.Fatalf("slept %v, want one wait", *sleeps)
	}
	d := (*sleeps)[0]
	if d < 50*time.Millisecond || d > 100*time.Millisecond {
		t.Fatalf("jittered wait %v outside [50ms, 100ms]", d)
	}
}

func TestRetryAfterHonored(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			w.Header().Set("Retry-After", "2")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		_ = json.NewEncoder(w).Encode(server.JobStatus{ID: "j1"})
	}))
	defer ts.Close()

	c := New(ts.URL, WithRand(func() float64 { return 0 }))
	sleeps := recordedSleeps(c)
	if _, err := c.Status(context.Background(), "j1"); err != nil {
		t.Fatal(err)
	}
	// Retry-After: 2 → d=2s, jitter bottom = 1s.
	if len(*sleeps) != 1 || (*sleeps)[0] != time.Second {
		t.Fatalf("slept %v, want [1s]", *sleeps)
	}
}

func TestBoundedAttempts(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	c := New(ts.URL, WithMaxAttempts(3), WithRand(func() float64 { return 0 }))
	recordedSleeps(c)
	_, err := c.Status(context.Background(), "j1")
	if err == nil {
		t.Fatal("expected error after exhausting retries")
	}
	// The final attempt's 503 is returned as a response, so the client
	// tries exactly max times.
	if hits.Load() != 3 {
		t.Fatalf("server hit %d times, want 3", hits.Load())
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want 503 APIError", err)
	}
}

func TestGetRetriesTransportErrors(t *testing.T) {
	var calls atomic.Int64
	c := New("http://example.invalid", WithMaxAttempts(3),
		WithRand(func() float64 { return 0 }),
		WithHTTPClient(&http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
			calls.Add(1)
			return nil, fmt.Errorf("connection refused")
		})}))
	recordedSleeps(c)
	_, err := c.Status(context.Background(), "j1")
	if err == nil {
		t.Fatal("expected transport failure")
	}
	if calls.Load() != 3 {
		t.Fatalf("transport called %d times, want 3", calls.Load())
	}
	if !strings.Contains(err.Error(), "giving up after 3 attempts") {
		t.Fatalf("err = %v, want giving-up wrapper", err)
	}
}

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

// RoundTrip implements http.RoundTripper.
func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

func TestPostNotRetriedOnTransportError(t *testing.T) {
	var calls atomic.Int64
	c := New("http://example.invalid", WithMaxAttempts(4),
		WithHTTPClient(&http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
			calls.Add(1)
			return nil, fmt.Errorf("broken pipe mid-request")
		})}))
	recordedSleeps(c)
	_, err := c.Submit(context.Background(), server.JobSpec{Kind: jobspec.KindSolo, Bench: "SAD"})
	if err == nil {
		t.Fatal("expected transport failure")
	}
	// The submission may have committed server-side; exactly one try.
	if calls.Load() != 1 {
		t.Fatalf("transport called %d times, want 1", calls.Load())
	}

	// A refused dial is no different: a listener bound and immediately
	// closed yields an address that refuses connections, and the POST
	// surfaces the dial error after one attempt.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + ln.Addr().String()
	ln.Close()
	var dials atomic.Int64
	dead := New(deadURL, WithMaxAttempts(4),
		WithHTTPClient(&http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
			dials.Add(1)
			return http.DefaultTransport.RoundTrip(r)
		})}))
	sleeps := recordedSleeps(dead)
	_, err = dead.Submit(context.Background(), server.JobSpec{Kind: jobspec.KindSolo, Bench: "SAD"})
	var opErr *net.OpError
	if !errors.As(err, &opErr) || opErr.Op != "dial" {
		t.Fatalf("err = %v, want the dial error", err)
	}
	if dials.Load() != 1 || len(*sleeps) != 0 {
		t.Fatalf("POST to a closed port tried %d times and slept %v, want one try and no backoff", dials.Load(), *sleeps)
	}
}

func TestPostNotRetriedAfterCommit(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		// A 500 after the handler saw the body: the job's fate is
		// unknown, so the client must surface it, not resubmit.
		w.WriteHeader(http.StatusInternalServerError)
		_ = json.NewEncoder(w).Encode(map[string]string{"error": "boom"})
	}))
	defer ts.Close()

	c := New(ts.URL, WithMaxAttempts(4))
	recordedSleeps(c)
	_, err := c.Submit(context.Background(), server.JobSpec{Kind: jobspec.KindSolo, Bench: "SAD"})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusInternalServerError {
		t.Fatalf("err = %v, want 500 APIError", err)
	}
	if hits.Load() != 1 {
		t.Fatalf("server hit %d times, want 1", hits.Load())
	}
}

func TestPostRetriedOnBackpressure(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			// 429 proves the job was not admitted: safe to retry.
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(server.JobStatus{ID: "j1", State: server.StateQueued})
	}))
	defer ts.Close()

	c := New(ts.URL, WithRand(func() float64 { return 0 }))
	recordedSleeps(c)
	st, err := c.Submit(context.Background(), server.JobSpec{Kind: jobspec.KindSolo, Bench: "SAD"})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "j1" {
		t.Fatalf("bad status %+v", st)
	}
	if hits.Load() != 2 {
		t.Fatalf("server hit %d times, want 2", hits.Load())
	}
}

func TestContextCancelStopsRetries(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	c := New(ts.URL, WithMaxAttempts(10), WithRand(func() float64 { return 0 }))
	c.sleep = func(ctx context.Context, d time.Duration) error {
		cancel() // the deadline fires while backing off
		return ctx.Err()
	}
	_, err := c.Status(ctx, "j1")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if hits.Load() != 1 {
		t.Fatalf("server hit %d times, want 1", hits.Load())
	}
}

// TestEndToEnd drives a real in-process chimerad: submit, await, fetch
// the result, scrape metrics, and cancel a second long job.
func TestEndToEnd(t *testing.T) {
	s := server.New(server.Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	c := New(ts.URL)
	ctx := context.Background()

	st, err := c.Submit(ctx, server.JobSpec{Kind: jobspec.KindSolo, Bench: "SAD", WindowUs: 100})
	if err != nil {
		t.Fatal(err)
	}
	fin, err := c.Await(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != server.StateDone {
		t.Fatalf("job finished %s (%s)", fin.State, fin.Error)
	}
	payload, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var res server.JobResult
	if err := json.Unmarshal(payload, &res); err != nil {
		t.Fatal(err)
	}
	if res.SoloRate <= 0 {
		t.Fatalf("bad result %+v", res)
	}

	long, err := c.Submit(ctx, server.JobSpec{Kind: jobspec.KindPeriodic, Bench: "SAD", WindowUs: 60e6})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Cancel(ctx, long.ID); err != nil {
		t.Fatal(err)
	}
	fin, err = c.Await(ctx, long.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != server.StateCanceled {
		t.Fatalf("cancelled job finished %s", fin.State)
	}

	metricsText, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metricsText, "chimera_server_jobs_completed 1") {
		t.Fatalf("metrics missing completion count:\n%s", metricsText)
	}
	list, err := c.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 {
		t.Fatalf("listed %d jobs, want 2", len(list))
	}
}

// TestRetryAfterUnparseableSurfacesTyped proves an unparseable
// Retry-After fails fast with *RetryAfterError instead of silently
// degrading to exponential backoff.
func TestRetryAfterUnparseableSurfacesTyped(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Retry-After", "Fri, 07 Aug 2026 00:00:00 GMT")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error":"busy"}`)
	}))
	defer ts.Close()

	c := New(ts.URL, WithRand(func() float64 { return 0 }))
	sleeps := recordedSleeps(c)
	_, err := c.Status(context.Background(), "j1")
	var rae *RetryAfterError
	if !errors.As(err, &rae) {
		t.Fatalf("err = %v (%T), want *RetryAfterError", err, err)
	}
	if rae.StatusCode != http.StatusTooManyRequests {
		t.Errorf("StatusCode = %d, want 429", rae.StatusCode)
	}
	if rae.Value != "Fri, 07 Aug 2026 00:00:00 GMT" {
		t.Errorf("Value = %q", rae.Value)
	}
	// The wrapped envelope stays reachable for callers that branch on
	// the server's message.
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Message != "busy" {
		t.Errorf("unwrapped envelope = %v, want the decoded APIError", rae.Response)
	}
	// Fail-fast: exactly one request, zero backoff sleeps.
	if hits.Load() != 1 {
		t.Errorf("server hit %d times, want 1", hits.Load())
	}
	if len(*sleeps) != 0 {
		t.Errorf("slept %v, want no backoff", *sleeps)
	}
	// Negative seconds are equally unparseable.
	if _, err := parseRetryAfter("-3"); err == nil {
		t.Error("parseRetryAfter(-3) accepted a negative wait")
	}
	if secs, err := parseRetryAfter(""); err != nil || secs != -1 {
		t.Errorf("parseRetryAfter(\"\") = %d, %v", secs, err)
	}
}
