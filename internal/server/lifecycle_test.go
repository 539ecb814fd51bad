package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"chimera/internal/faults"
	"chimera/internal/jobspec"
)

// holdSpec runs for minutes unless cancelled: it holds a worker.
var holdSpec = JobSpec{Kind: jobspec.KindPeriodic, Bench: "SAD", WindowUs: 60e6}

// recordBuffer is a Config.Record sink the test reads while jobs end.
type recordBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *recordBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// outcomes returns the recorded outcome of every record of job seq.
func (b *recordBuffer) outcomes(t *testing.T, seq int64) []string {
	t.Helper()
	b.mu.Lock()
	recs, err := jobspec.ReadTrace(bytes.NewReader(b.buf.Bytes()))
	b.mu.Unlock()
	if err != nil {
		t.Fatalf("read record: %v", err)
	}
	var out []string
	for _, r := range recs {
		if r.Seq == seq {
			out = append(out, r.Outcome)
		}
	}
	return out
}

// hold submits holdSpec, waits until it runs, and cancels it when the
// test ends. It returns the job's ID.
func hold(t *testing.T, s *Server, ts *httptest.Server) string {
	t.Helper()
	st, code := postJob(t, ts, holdSpec, "")
	if code != http.StatusAccepted {
		t.Fatalf("submit the holding job: %d", code)
	}
	awaitRunning(t, ts, st.ID)
	t.Cleanup(func() {
		if j, ok := s.lookup(st.ID); ok {
			s.cancelJob(j)
		}
	})
	return st.ID
}

// queued submits spec behind the held worker and requires it queued.
func queued(t *testing.T, ts *httptest.Server, spec JobSpec) string {
	t.Helper()
	st, code := postJob(t, ts, spec, "")
	if code != http.StatusAccepted || st.State != StateQueued {
		t.Fatalf("submit behind the held worker: %d %s", code, st.State)
	}
	return st.ID
}

// TestEveryWayAJobEnds drives each way a chimerad job can end on a
// one-worker, one-slot server and checks the same invariants for each:
// the final state and error; exactly one of the completed, failed and
// canceled counters moved, once per ended job; one server/job_latency_ms
// observation and one Config.Record line per ended job;
// server/queue_depth back at 0; and the next submission admitted (after
// the shutdown cut-off, refused). Rows with hold start with a long job
// on the only worker, so their own job waits in the queue.
func TestEveryWayAJobEnds(t *testing.T) {
	timed := func(timeoutMs, deadlineMs int64) JobSpec {
		spec := shortSpec()
		spec.TimeoutMs, spec.DeadlineMs = timeoutMs, deadlineMs
		return spec
	}
	rows := []struct {
		name string
		cfg  Config
		hold bool
		// end ends the row's jobs, given the held job's ID, and returns
		// their IDs once they are terminal.
		end     func(t *testing.T, s *Server, ts *httptest.Server, held string) []string
		state   JobState
		err     string
		counter string
		// closes marks the row that shuts the server: the next
		// submission is refused.
		closes bool
	}{
		{
			name: "done",
			end: func(t *testing.T, s *Server, ts *httptest.Server, _ string) []string {
				st, code := postJob(t, ts, shortSpec(), "?wait=1")
				if code != http.StatusOK {
					t.Fatalf("submit: %d", code)
				}
				return []string{st.ID}
			},
			state: StateDone, counter: MetricJobsCompleted,
		},
		{
			name: "failed",
			cfg:  Config{Faults: faults.New(faults.Config{Seed: 1, JobPanic: 1})},
			end: func(t *testing.T, s *Server, ts *httptest.Server, _ string) []string {
				st, code := postJob(t, ts, shortSpec(), "?wait=1")
				if code != http.StatusOK {
					t.Fatalf("submit: %d", code)
				}
				return []string{st.ID}
			},
			state: StateFailed, err: "panicked", counter: MetricJobsFailed,
		},
		{
			name: "cancelled while queued",
			hold: true,
			end: func(t *testing.T, s *Server, ts *httptest.Server, _ string) []string {
				id := queued(t, ts, shortSpec())
				st, code := cancelStatus(t, ts, id)
				if code != http.StatusAccepted || st.State != StateCanceled {
					t.Fatalf("cancel answered %d with %s, want 202 with canceled", code, st.State)
				}
				return []string{id}
			},
			state: StateCanceled, err: "context canceled", counter: MetricJobsCanceled,
		},
		{
			name: "cancelled while running",
			hold: true,
			end: func(t *testing.T, s *Server, ts *httptest.Server, held string) []string {
				if code := deleteJob(t, ts, held); code != http.StatusAccepted {
					t.Fatalf("cancel: %d", code)
				}
				awaitWithin(t, ts, held, 10*time.Second)
				return []string{held}
			},
			state: StateCanceled, err: "context canceled", counter: MetricJobsCanceled,
		},
		{
			name: "timeout_ms passing while queued",
			hold: true,
			end: func(t *testing.T, s *Server, ts *httptest.Server, _ string) []string {
				id := queued(t, ts, timed(50, 0))
				awaitWithin(t, ts, id, 5*time.Second)
				return []string{id}
			},
			state: StateFailed, err: "deadline exceeded", counter: MetricJobsFailed,
		},
		{
			name: "deadline_ms passing while queued",
			hold: true,
			end: func(t *testing.T, s *Server, ts *httptest.Server, _ string) []string {
				id := queued(t, ts, timed(0, 50))
				awaitWithin(t, ts, id, 5*time.Second)
				return []string{id}
			},
			state: StateFailed, err: "deadline exceeded", counter: MetricJobsFailed,
		},
		{
			name: "timeout_ms passing while running",
			end: func(t *testing.T, s *Server, ts *httptest.Server, _ string) []string {
				spec := holdSpec
				spec.TimeoutMs = 100
				st, code := postJob(t, ts, spec, "")
				if code != http.StatusAccepted {
					t.Fatalf("submit: %d", code)
				}
				awaitWithin(t, ts, st.ID, 10*time.Second)
				return []string{st.ID}
			},
			state: StateFailed, err: "deadline exceeded", counter: MetricJobsFailed,
		},
		{
			name: "abandoned wait=1",
			hold: true,
			end: func(t *testing.T, s *Server, ts *httptest.Server, _ string) []string {
				body, err := json.Marshal(shortSpec())
				if err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/api/v1/jobs?wait=1", bytes.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				answered := make(chan error, 1)
				go func() {
					resp, err := http.DefaultClient.Do(req)
					if err == nil {
						resp.Body.Close()
						err = errors.New(resp.Status)
					}
					answered <- err
				}()
				// Walk away once the job is admitted behind the held worker.
				for deadline := time.Now().Add(5 * time.Second); len(s.list()) < 2; {
					if time.Now().After(deadline) {
						t.Fatal("the waited job was never admitted")
					}
					time.Sleep(time.Millisecond)
				}
				cancel()
				if err := <-answered; !errors.Is(err, context.Canceled) {
					t.Fatalf("the abandoned wait returned %v", err)
				}
				all := s.list()
				id := all[len(all)-1].ID
				awaitWithin(t, ts, id, 5*time.Second)
				return []string{id}
			},
			state: StateCanceled, err: "context canceled", counter: MetricJobsCanceled,
		},
		{
			name: "shutdown cut-off",
			hold: true,
			end: func(t *testing.T, s *Server, ts *httptest.Server, held string) []string {
				id := queued(t, ts, shortSpec())
				ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
				defer cancel()
				if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("Shutdown returned %v, want the cut-off", err)
				}
				for _, st := range s.list() {
					if !st.State.Terminal() {
						t.Errorf("job %s still %s when Shutdown returned", st.ID, st.State)
					}
				}
				return []string{held, id}
			},
			state: StateCanceled, err: "context canceled", counter: MetricJobsCanceled, closes: true,
		},
	}
	counters := []string{MetricJobsCompleted, MetricJobsFailed, MetricJobsCanceled}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			rec := &recordBuffer{}
			cfg := row.cfg
			cfg.Workers, cfg.QueueCap, cfg.Record = 1, 1, rec
			s, ts := newTestServer(t, cfg)
			var held string
			if row.hold {
				held = hold(t, s, ts)
			}
			before := make(map[string]int64)
			for _, name := range counters {
				before[name] = s.reg.Counter(name).Value()
			}
			latencies := s.hLatency.Count()

			ids := row.end(t, s, ts, held)

			for _, id := range ids {
				j, ok := s.lookup(id)
				if !ok {
					t.Fatalf("job %s not found", id)
				}
				st := j.status()
				if st.State != row.state || (row.err == "") != (st.Error == "") || !strings.Contains(st.Error, row.err) {
					t.Errorf("job %s ended %s (%q), want %s (%q)", id, st.State, st.Error, row.state, row.err)
				}
				if got := rec.outcomes(t, j.seq); len(got) != 1 || got[0] != string(row.state) {
					t.Errorf("job %s recorded %v, want one %s record", id, got, row.state)
				}
			}
			for _, name := range counters {
				want := int64(0)
				if name == row.counter {
					want = int64(len(ids))
				}
				if moved := s.reg.Counter(name).Value() - before[name]; moved != want {
					t.Errorf("%s moved by %d, want %d", name, moved, want)
				}
			}
			if got := s.hLatency.Count() - latencies; got != uint64(len(ids)) {
				t.Errorf("%s observed %d jobs, want %d", MetricJobLatency, got, len(ids))
			}
			if d := s.gQueueDepth.Value(); d != 0 {
				t.Errorf("%s = %d, want 0", MetricQueueDepth, d)
			}
			want := http.StatusAccepted
			if row.closes {
				want = http.StatusServiceUnavailable
			}
			if _, code := postJob(t, ts, shortSpec(), ""); code != want {
				t.Errorf("next submission answered %d, want %d", code, want)
			}
		})
	}
}

// TestCachedSpecExpiredInQueueFails: a spec whose result is cached,
// resubmitted with a timeout that passes while it waits in the queue,
// fails with "deadline exceeded" every time. It is never answered from
// the cache.
func TestCachedSpecExpiredInQueueFails(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	if st, code := postJob(t, ts, shortSpec(), "?wait=1"); code != http.StatusOK || st.State != StateDone {
		t.Fatalf("first run: %d %s (%s)", code, st.State, st.Error)
	}
	hold(t, s, ts)
	spec := shortSpec()
	spec.TimeoutMs = 20
	for i := 0; i < 20; i++ {
		id := queued(t, ts, spec)
		if fin := awaitWithin(t, ts, id, 5*time.Second); fin.State != StateFailed || fin.Error != "deadline exceeded" {
			t.Fatalf("try %d: job %s ended %s (%q), want failed (deadline exceeded)", i, id, fin.State, fin.Error)
		}
	}
}
