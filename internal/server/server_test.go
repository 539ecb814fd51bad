package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"chimera/internal/cluster"
	"chimera/internal/faults"
	"chimera/internal/jobspec"
	"chimera/internal/preempt"
	"chimera/internal/simjob"
	"chimera/internal/trace"
	"chimera/internal/units"
	"chimera/internal/workloads"
)

// newTestServer boots a server with small limits and an httptest
// frontend, and tears both down at test end.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

// postJob submits a spec and decodes the response status.
func postJob(t *testing.T, ts *httptest.Server, spec JobSpec, query string) (JobStatus, int) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/api/v1/jobs"+query, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode submit response: %v", err)
		}
	}
	return st, resp.StatusCode
}

// awaitWithin polls a job until it is terminal, failing after d.
func awaitWithin(t *testing.T, ts *httptest.Server, id string, d time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		resp, err := http.Get(ts.URL + "/api/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, st.State, d)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// cancelStatus cancels a job over the API and decodes the 202's status.
func cancelStatus(t *testing.T, ts *httptest.Server, id string) (JobStatus, int) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp.StatusCode
}

// await polls a job until it is terminal.
func await(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	return awaitWithin(t, ts, id, 60*time.Second)
}

// awaitRunning polls a job until a worker has picked it up.
func awaitRunning(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/api/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var cur JobStatus
		err = json.NewDecoder(resp.Body).Decode(&cur)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if cur.State == StateRunning {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never started (state %s)", id, cur.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// deleteJob cancels a job over the API and returns the response status.
func deleteJob(t *testing.T, ts *httptest.Server, id string) int {
	t.Helper()
	_, code := cancelStatus(t, ts, id)
	return code
}

// fetchResult reads /result's raw payload.
func fetchResult(t *testing.T, ts *httptest.Server, id string) ([]byte, int) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b, resp.StatusCode
}

// shortSpec is a fast solo scenario (small window keeps tests quick).
func shortSpec() JobSpec {
	return JobSpec{Kind: jobspec.KindSolo, Bench: "SAD", WindowUs: 100}
}

// TestSubmitAndResult: a 202 carries the job's status, then the job runs
// to done and its result is served. A long job holds the only worker so
// the fresh job's state is deterministically queued — a tiny job on an
// idle worker can already be done when its 202 is rendered.
func TestSubmitAndResult(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	long, code := postJob(t, ts, JobSpec{Kind: jobspec.KindPeriodic, Bench: "SAD", WindowUs: 60e6}, "")
	if code != http.StatusAccepted {
		t.Fatalf("submit long: got %d", code)
	}
	awaitRunning(t, ts, long.ID)
	st, code := postJob(t, ts, shortSpec(), "")
	if code != http.StatusAccepted {
		t.Fatalf("submit: got %d, want 202", code)
	}
	if st.State != StateQueued {
		t.Fatalf("fresh job state = %s behind a running job, want %s", st.State, StateQueued)
	}
	if code := deleteJob(t, ts, long.ID); code != http.StatusAccepted {
		t.Fatalf("cancel long: got %d", code)
	}
	fin := await(t, ts, st.ID)
	if fin.State != StateDone {
		t.Fatalf("job finished %s (%s), want done", fin.State, fin.Error)
	}
	var res JobResult
	if err := json.Unmarshal(fin.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Kind != jobspec.KindSolo || res.SoloRate <= 0 {
		t.Fatalf("bad result: %+v", res)
	}
	body, code := fetchResult(t, ts, st.ID)
	if code != http.StatusOK {
		t.Fatalf("result: got %d", code)
	}
	if !bytes.Equal(bytes.TrimSpace(body), []byte(fin.Result)) {
		t.Fatalf("result body %q != status result %q", body, fin.Result)
	}
}

// TestResultBytesMatchExecutor: for every job kind, the result payload
// is byte-for-byte the in-process executor's result, run on a fresh
// cache and marshalled as a JobResult.
func TestResultBytesMatchExecutor(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	r, err := workloads.NewRunner(units.FromMicroseconds(1000), units.FromMicroseconds(15), 1)
	if err != nil {
		t.Fatal(err)
	}
	r.UsePool(simjob.NewPool(2, simjob.NewCache()))
	ex := workloads.NewExecutor(r)
	for _, spec := range []JobSpec{
		jobspec.Solo("SAD").WithWindowUs(100),
		jobspec.Periodic("SAD", "").WithWindowUs(2000),
		jobspec.Pair("SAD", "MUM", jobspec.PolicyFCFS).WithWindowUs(100),
	} {
		st, code := postJob(t, ts, spec, "?wait=1")
		if code != http.StatusOK || st.State != StateDone {
			t.Fatalf("%s: submit = %d, state %s (%s)", spec.Kind, code, st.State, st.Error)
		}
		got, code := fetchResult(t, ts, st.ID)
		if code != http.StatusOK {
			t.Fatalf("%s: result = %d", spec.Kind, code)
		}
		var res JobResult
		if res, _, err = ex.Run(context.Background(), spec); err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: served payload differs from the executor's\n got  %s\n want %s", spec.Kind, got, want)
		}
	}
}

// TestConcurrentDedup is the ISSUE acceptance check: the same scenario
// submitted twice concurrently yields byte-identical result payloads
// and executes at most one periodic simulation (singleflight), with the
// second submission marked deduped.
func TestConcurrentDedup(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	spec := JobSpec{Kind: jobspec.KindPeriodic, Bench: "SAD", WindowUs: 2000}

	var wg sync.WaitGroup
	ids := make([]string, 2)
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, code := postJob(t, ts, spec, "")
			if code != http.StatusAccepted {
				t.Errorf("submit %d: got %d", i, code)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	bodies := make([][]byte, 2)
	for i, id := range ids {
		fin := await(t, ts, id)
		if fin.State != StateDone {
			t.Fatalf("job %s finished %s (%s)", id, fin.State, fin.Error)
		}
		body, code := fetchResult(t, ts, id)
		if code != http.StatusOK {
			t.Fatalf("result %s: got %d", id, code)
		}
		bodies[i] = body
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("result payloads differ:\n%s\n%s", bodies[0], bodies[1])
	}

	// The periodic run (and its solo baseline) must have executed once:
	// 2 jobs run total, and at least one submission was deduped.
	stats := s.Cache().Stats()
	if stats.JobsRun != 2 {
		t.Fatalf("JobsRun = %d, want 2 (solo baseline + periodic)", stats.JobsRun)
	}
	if s.reg.Counter("server/jobs_deduped").Value() != 1 {
		t.Fatalf("jobs_deduped = %d, want 1", s.reg.Counter("server/jobs_deduped").Value())
	}
}

// TestCancelRunningJob is the ISSUE acceptance check: client-side
// cancellation stops the engine mid-run (observable via the
// sim/canceled_runs counter) and frees the worker slot for new work.
func TestCancelRunningJob(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	// A huge window would run for a long time if not cancelled.
	st, code := postJob(t, ts, JobSpec{Kind: jobspec.KindPeriodic, Bench: "SAD", WindowUs: 60e6}, "")
	if code != http.StatusAccepted {
		t.Fatalf("submit: got %d", code)
	}
	awaitRunning(t, ts, st.ID)

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: got %d", resp.StatusCode)
	}

	fin := await(t, ts, st.ID)
	if fin.State != StateCanceled {
		t.Fatalf("job finished %s, want canceled", fin.State)
	}
	if n := s.reg.Counter("sim/canceled_runs").Value(); n < 1 {
		t.Fatalf("sim/canceled_runs = %d, want >= 1", n)
	}

	// The single worker must be free again: a short job completes.
	st2, code := postJob(t, ts, shortSpec(), "")
	if code != http.StatusAccepted {
		t.Fatalf("post-cancel submit: got %d", code)
	}
	if fin := await(t, ts, st2.ID); fin.State != StateDone {
		t.Fatalf("post-cancel job finished %s (%s)", fin.State, fin.Error)
	}

	// A second DELETE on a terminal job conflicts.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/jobs/"+st.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("double cancel: got %d, want 409", resp.StatusCode)
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 1})
	// Occupy the worker with a long job and the queue with another.
	first, code := postJob(t, ts, JobSpec{Kind: jobspec.KindPeriodic, Bench: "SAD", WindowUs: 60e6}, "")
	if code != http.StatusAccepted {
		t.Fatalf("submit 1: got %d", code)
	}
	// Wait for the worker to pick up the first job so the queue is empty.
	awaitRunning(t, ts, first.ID)
	second, code := postJob(t, ts, JobSpec{Kind: jobspec.KindPeriodic, Bench: "MUM", WindowUs: 60e6}, "")
	if code != http.StatusAccepted {
		t.Fatalf("submit 2: got %d", code)
	}

	body, err := json.Marshal(JobSpec{Kind: jobspec.KindSolo, Bench: "ST", WindowUs: 100})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: got %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// Clean up the long jobs so shutdown stays fast.
	for _, id := range []string{first.ID, second.ID} {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		await(t, ts, id)
	}
}

// TestCancelQueuedJobFreesSlot: cancelling a queued job gives its
// admission-queue slot back at once, not when a worker later pops it,
// so a full queue of cancelled jobs neither refuses new work nor
// inflates server/queue_depth.
func TestCancelQueuedJobFreesSlot(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueCap: 1})
	long, code := postJob(t, ts, JobSpec{Kind: jobspec.KindPeriodic, Bench: "SAD", WindowUs: 60e6}, "")
	if code != http.StatusAccepted {
		t.Fatalf("submit long: got %d", code)
	}
	awaitRunning(t, ts, long.ID)
	queued, code := postJob(t, ts, JobSpec{Kind: jobspec.KindPeriodic, Bench: "MUM", WindowUs: 60e6}, "")
	if code != http.StatusAccepted {
		t.Fatalf("submit queued: got %d", code)
	}
	if code := deleteJob(t, ts, queued.ID); code != http.StatusAccepted {
		t.Fatalf("cancel queued: got %d", code)
	}
	if d := s.gQueueDepth.Value(); d != 0 {
		t.Errorf("%s = %d after cancelling the only queued job, want 0", MetricQueueDepth, d)
	}
	third, code := postJob(t, ts, shortSpec(), "")
	if code != http.StatusAccepted {
		t.Fatalf("submit after cancelling the queued job: got %d, want 202", code)
	}

	if code := deleteJob(t, ts, long.ID); code != http.StatusAccepted {
		t.Fatalf("cancel long: got %d", code)
	}
	if fin := await(t, ts, third.ID); fin.State != StateDone {
		t.Fatalf("third job finished %s (%s)", fin.State, fin.Error)
	}
}

func TestJobDeadline(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	st, code := postJob(t, ts, JobSpec{Kind: jobspec.KindPeriodic, Bench: "SAD", WindowUs: 60e6, TimeoutMs: 50}, "")
	if code != http.StatusAccepted {
		t.Fatalf("submit: got %d", code)
	}
	fin := await(t, ts, st.ID)
	if fin.State != StateFailed || fin.Error != "deadline exceeded" {
		t.Fatalf("job finished %s (%q), want failed/deadline exceeded", fin.State, fin.Error)
	}
}

func TestValidationErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []string{
		`{"kind":"solo"}`,                                  // missing bench
		`{"kind":"nope","bench":"SAD"}`,                    // bad kind
		`{"kind":"solo","bench":"NOPE"}`,                   // unknown bench
		`{"kind":"solo","bench":"SAD","policy":"fcfs"}`,    // fcfs non-pair
		`{"kind":"pair","bench":"SAD"}`,                    // missing bench_b
		`{"kind":"solo","bench":"SAD","bench_b":"MUM"}`,    // bench_b non-pair
		`{"kind":"solo","bench":"SAD","trace":true}`,       // trace non-periodic
		`{"kind":"solo","bench":"SAD","unknown_field":1}`,  // strict decoding
		`{"kind":"solo","bench":"SAD","timeout_ms":-1}`,    // negative timeout
		`{"kind":"solo","bench":"SAD","policy":"mystery"}`, // unknown policy
		`{"kind":"periodic","bench":"SAD","window_us":-1}`, // negative window

		// Millisecond counts that would wrap as a time.Duration.
		`{"kind":"solo","bench":"SAD","window_us":100,"timeout_ms":10000000000000}`,
		`{"kind":"solo","bench":"SAD","deadline_ms":9223372036854775807}`,

		// Strict decoding: a misspelled field, and a second value after
		// the spec object.
		`{"kind":"solo","bench":"SAD","window_us":100,"windw_us":50}`,
		`{"kind":"solo","bench":"SAD","window_us":100} {"kind":"pair"}`,

		// A multi spec of more processes than the device has SMs, and one
		// near the 1 MiB body limit.
		`{"kind":"multi","bench":"` + strings.Repeat("SAD+", jobspec.MaxMultiBenchmarks) + `SAD"}`,
		`{"kind":"multi","bench":"` + strings.Repeat("SAD+", 250000) + `SAD"}`,
	}
	for _, body := range cases {
		resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %s: got %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestWaitSubmission(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	st, code := postJob(t, ts, shortSpec(), "?wait=1")
	if code != http.StatusOK {
		t.Fatalf("wait submit: got %d, want 200", code)
	}
	if st.State != StateDone {
		t.Fatalf("waited job state = %s (%s)", st.State, st.Error)
	}
	if len(st.Result) == 0 {
		t.Fatal("waited job carries no result")
	}
}

func TestSSEProgress(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, SSEInterval: 20 * time.Millisecond})
	st, code := postJob(t, ts, JobSpec{Kind: jobspec.KindPeriodic, Bench: "SAD", WindowUs: 5000}, "")
	if code != http.StatusAccepted {
		t.Fatalf("submit: got %d", code)
	}
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/api/v1/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	var sawDone bool
	var last JobStatus
	sc := bufio.NewScanner(resp.Body)
	var event string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &last); err != nil {
				t.Fatalf("bad SSE payload: %v", err)
			}
			if event == "done" {
				sawDone = true
			}
		}
	}
	if !sawDone {
		t.Fatal("SSE stream ended without a done event")
	}
	if last.State != StateDone {
		t.Fatalf("final SSE state = %s (%s)", last.State, last.Error)
	}
}

// TestSSEStatsKeys: a status frame's stats object carries the
// documented snake_case keys. A long job holds the only worker, so the
// streamed job is queued and its stream opens with a status frame.
func TestSSEStatsKeys(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	long, code := postJob(t, ts, JobSpec{Kind: jobspec.KindPeriodic, Bench: "SAD", WindowUs: 60e6}, "")
	if code != http.StatusAccepted {
		t.Fatalf("submit long: got %d", code)
	}
	awaitRunning(t, ts, long.ID)
	queued, code := postJob(t, ts, JobSpec{Kind: jobspec.KindPeriodic, Bench: "MUM", WindowUs: 60e6}, "")
	if code != http.StatusAccepted {
		t.Fatalf("submit queued: got %d", code)
	}
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/api/v1/jobs/"+queued.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var frame struct {
		Stats map[string]json.RawMessage `json:"stats"`
	}
	sc := bufio.NewScanner(resp.Body)
	for event := ""; frame.Stats == nil && sc.Scan(); {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "status":
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &frame); err != nil {
				t.Fatalf("bad SSE payload: %v", err)
			}
		}
	}
	resp.Body.Close()
	if frame.Stats == nil {
		t.Fatal("SSE stream ended without a status frame carrying stats")
	}
	for _, key := range []string{"jobs_run", "evictions"} {
		if _, ok := frame.Stats[key]; !ok {
			t.Errorf("status frame stats lack %q: %v", key, frame.Stats)
		}
	}
	for _, id := range []string{queued.ID, long.ID} {
		if code := deleteJob(t, ts, id); code != http.StatusAccepted {
			t.Errorf("cancel %s: got %d", id, code)
		}
	}
}

func TestTraceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	st, code := postJob(t, ts, JobSpec{Kind: jobspec.KindPeriodic, Bench: "SAD", WindowUs: 3000, Trace: true}, "?wait=1")
	if code != http.StatusOK {
		t.Fatalf("submit: got %d", code)
	}
	if st.State != StateDone {
		t.Fatalf("traced job finished %s (%s)", st.State, st.Error)
	}
	var res JobResult
	if err := json.Unmarshal(st.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || res.Trace.Events == 0 {
		t.Fatalf("traced job result has no trace info: %+v", res)
	}
	if st.Deduped {
		t.Fatal("traced job must never be deduped")
	}

	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace: got %d", resp.StatusCode)
	}
	var perfetto struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&perfetto); err != nil {
		t.Fatalf("trace payload: %v", err)
	}
	if len(perfetto.TraceEvents) == 0 {
		t.Fatal("empty perfetto export")
	}

	// An untraced job 404s on /trace.
	st2, _ := postJob(t, ts, shortSpec(), "?wait=1")
	resp2, err := http.Get(ts.URL + "/api/v1/jobs/" + st2.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("untraced trace fetch: got %d, want 404", resp2.StatusCode)
	}
}

// TestTraceMatchesUntracedSpec pins that a traced job simulates exactly
// what the untraced spec computes — headroom included: the trace's
// per-block preemption events, by technique, equal the untraced
// result's Mix.
func TestTraceMatchesUntracedSpec(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	spec := JobSpec{Kind: jobspec.KindPeriodic, Bench: "SAD", WindowUs: 20000, ConstraintUs: 5, HeadroomUs: 1}

	spec.Trace = true
	st, code := postJob(t, ts, spec, "?wait=1")
	if code != http.StatusOK || st.State != StateDone {
		t.Fatalf("traced job: code %d state %s (%s)", code, st.State, st.Error)
	}
	j, _ := s.lookup(st.ID)
	j.mu.Lock()
	var traced [preempt.NumTechniques]int
	for _, ev := range j.events {
		switch ev.Kind {
		case trace.SaveTB:
			traced[preempt.Switch]++
		case trace.DrainTB:
			traced[preempt.Drain]++
		case trace.FlushTB:
			traced[preempt.Flush]++
		}
	}
	j.mu.Unlock()

	spec.Trace = false
	st, code = postJob(t, ts, spec, "?wait=1")
	if code != http.StatusOK || st.State != StateDone {
		t.Fatalf("untraced job: code %d state %s (%s)", code, st.State, st.Error)
	}
	var res JobResult
	if err := json.Unmarshal(st.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Periodic == nil || traced != res.Periodic.Mix {
		t.Errorf("traced switch/drain/flush blocks %v, untraced spec computes %v", traced, res.Periodic.Mix)
	}
}

// scrapeMetrics reads /metrics, checking its status and content type.
func scrapeMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: got %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	if _, code := postJob(t, ts, shortSpec(), "?wait=1"); code != http.StatusOK {
		t.Fatalf("submit: got %d", code)
	}
	body := scrapeMetrics(t, ts)
	for _, want := range []string{
		"chimera_server_jobs_submitted 1",
		"chimera_server_jobs_completed 1",
		"chimera_simjob_jobs_run",
		"chimera_server_job_latency_ms_bucket",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestMetricsCountEvictions: /metrics publishes the server's cache
// counters, so results the LRU cap drops count as evictions. Three
// distinct solo jobs through a one-entry cache evict two results.
func TestMetricsCountEvictions(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, CacheCap: 1})
	for _, bench := range []string{"SAD", "MUM", "BS"} {
		if _, code := postJob(t, ts, JobSpec{Kind: jobspec.KindSolo, Bench: bench, WindowUs: 100}, "?wait=1"); code != http.StatusOK {
			t.Fatalf("submit %s: got %d", bench, code)
		}
	}
	var got []string
	for _, line := range strings.Split(scrapeMetrics(t, ts), "\n") {
		if strings.HasPrefix(line, "chimera_simjob_evictions ") {
			got = append(got, line)
		}
	}
	if len(got) != 1 || got[0] != "chimera_simjob_evictions 2" {
		t.Errorf("eviction samples = %q, want exactly [chimera_simjob_evictions 2]", got)
	}
}

func TestPriorityOrdering(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	// Block the worker, then queue a low- and a high-priority job; the
	// high-priority one must start (and finish) first.
	blocker, code := postJob(t, ts, JobSpec{Kind: jobspec.KindPeriodic, Bench: "SAD", WindowUs: 60e6}, "")
	if code != http.StatusAccepted {
		t.Fatalf("submit blocker: got %d", code)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/api/v1/jobs/" + blocker.ID)
		if err != nil {
			t.Fatal(err)
		}
		var cur JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&cur); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if cur.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	low, code := postJob(t, ts, JobSpec{Kind: jobspec.KindSolo, Bench: "MUM", WindowUs: 100, Priority: 1}, "")
	if code != http.StatusAccepted {
		t.Fatalf("submit low: got %d", code)
	}
	high, code := postJob(t, ts, JobSpec{Kind: jobspec.KindSolo, Bench: "ST", WindowUs: 100, Priority: 9}, "")
	if code != http.StatusAccepted {
		t.Fatalf("submit high: got %d", code)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/jobs/"+blocker.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	finHigh := await(t, ts, high.ID)
	finLow := await(t, ts, low.ID)
	if finHigh.State != StateDone || finLow.State != StateDone {
		t.Fatalf("jobs finished %s/%s", finHigh.State, finLow.State)
	}
	if finLow.StartedAt.Before(*finHigh.StartedAt) {
		t.Fatalf("low-priority job started first (%v < %v)", finLow.StartedAt, finHigh.StartedAt)
	}
}

func TestListJobs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	var ids []string
	for i := 0; i < 3; i++ {
		st, code := postJob(t, ts, JobSpec{Kind: jobspec.KindSolo, Bench: "SAD", WindowUs: 100, Seed: uint64(i + 1)}, "")
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: got %d", i, code)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		await(t, ts, id)
	}
	resp, err := http.Get(ts.URL + "/api/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 3 {
		t.Fatalf("listed %d jobs, want 3", len(list))
	}
	for i, st := range list {
		if st.ID != ids[i] {
			t.Fatalf("list order: got %s at %d, want %s", st.ID, i, ids[i])
		}
	}
}

func TestShutdownRejectsSubmissions(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	body, _ := json.Marshal(shortSpec())
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown submit: got %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown healthz: got %d, want 503", resp.StatusCode)
	}
}

// TestFaultedResultsStayOutOfPeerIndex: a watchdog or armed engine
// stalls change result payloads, so a server running either must not
// offer its results on the peer-cache route, where a peer or the front
// would serve them under the clean spec hash.
func TestFaultedResultsStayOutOfPeerIndex(t *testing.T) {
	spec := jobspec.Periodic("SAD", "").WithWindowUs(500)
	norm := spec
	norm.Normalize()
	for _, tc := range []struct {
		name string
		cfg  Config
		want int
	}{
		{"clean", Config{}, http.StatusOK},
		{"stalls", Config{Faults: faults.New(faults.Config{Seed: 1, EngineStall: 1})}, http.StatusNotFound},
		{"watchdog", Config{WatchdogK: 0.5}, http.StatusNotFound},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestServer(t, tc.cfg)
			if st, code := postJob(t, ts, spec, "?wait=1"); code != http.StatusOK || st.State != StateDone {
				t.Fatalf("submit: %d %s %s", code, st.State, st.Error)
			}
			resp, err := http.Get(ts.URL + cluster.CachePathPrefix + norm.Hash())
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("peer route answered %d, want %d", resp.StatusCode, tc.want)
			}
		})
	}
}

// TestPeerGarbagePayloadIsAPeerError: a peer payload that is not a
// result is a failed lookup, not a hit. The replica computes the job
// itself, and the lookup counts in server/peer_errors.
func TestPeerGarbagePayloadIsAPeerError(t *testing.T) {
	const self, peer = "http://self", "http://peer"
	s, ts := newTestServer(t, Config{Workers: 1, Cluster: &cluster.Node{
		Self: self,
		Ring: cluster.NewRing([]string{self, peer}, 0),
		Fetch: func(context.Context, string, string) ([]byte, error) {
			return []byte("{not json"), nil
		},
	}})
	st, code := postJob(t, ts, shortSpec(), "?wait=1")
	if code != http.StatusOK || st.State != StateDone || st.Deduped {
		t.Fatalf("submit: %d %s deduped=%t %s, want a locally computed result", code, st.State, st.Deduped, st.Error)
	}
	for name, want := range map[string]int64{MetricPeerHits: 0, MetricPeerMisses: 0, MetricPeerErrors: 1} {
		if got := s.reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if run := s.Cache().Stats().JobsRun; run != 1 {
		t.Errorf("jobs run %d, want 1", run)
	}
}
