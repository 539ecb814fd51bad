package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"chimera/internal/faults"
	"chimera/internal/jobspec"
	"chimera/internal/sched"
	"chimera/internal/simjob"
	"chimera/internal/trace"
	"chimera/internal/workloads"
)

// job is the server-side record of one submission. The immutable
// identity fields are set at admission; the mutable lifecycle fields are
// guarded by mu. done closes exactly once, when finish ends the job.
// ctx is the job's one lifecycle signal: DELETE, an abandoned wait=1,
// the shutdown cut-off and the job's deadline all end it. stop
// unregisters the hook that takes the job out of the queue when ctx
// ends (submit); a worker stops it when it pops the job.
type job struct {
	id       string
	seq      int64
	spec     JobSpec
	priority int
	ctx      context.Context
	cancel   context.CancelFunc
	stop     func() bool
	done     chan struct{}

	mu        sync.Mutex
	state     JobState
	errMsg    string
	dedup     bool
	result    []byte
	events    []trace.Event
	submitted time.Time
	started   time.Time
	finished  time.Time
}

// status renders the job's API view. It never includes pool stats;
// the SSE path decorates the snapshot itself.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:          j.id,
		State:       j.state,
		Spec:        j.spec,
		Deduped:     j.dedup,
		Error:       j.errMsg,
		SubmittedAt: j.submitted,
	}
	if j.state == StateDone {
		st.Result = json.RawMessage(j.result)
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	return st
}

// Submission errors mapped to HTTP statuses by the handlers.
var (
	// errQueueFull rejects a submission when the admission queue is at
	// capacity (429 + Retry-After).
	errQueueFull = errors.New("server: admission queue full")
	// errShedHopeless rejects a deadlined submission whose predicted
	// completion already exceeds its deadline (429, counted separately
	// in server/shed_hopeless; see docs/scheduling.md).
	errShedHopeless = errors.New("server: shed: predicted completion exceeds deadline_ms")
	// errClosed rejects a submission during shutdown (503).
	errClosed = errors.New("server: shutting down")
)

// ewmaAlpha is the smoothing factor of the completed-job service-time
// estimate feeding the shed-on-hopeless predicate.
const ewmaAlpha = 0.2

// submit admits one normalized, validated spec: it assigns an ID,
// starts the job's deadline clock, and queues it for the workers.
// Admission is deadline-aware (sched.AdmissionQueue): priority first,
// earliest deadline next, arrival order last — and a deadlined
// submission that cannot plausibly complete in time is shed up front.
func (s *Server) submit(spec JobSpec) (*job, error) {
	timeout := s.cfg.DefaultTimeout
	if spec.TimeoutMs > 0 {
		timeout = time.Duration(spec.TimeoutMs) * time.Millisecond
	}
	if spec.DeadlineMs > 0 {
		// The deadline is a service-level bound: once it passes, the
		// job's context expires and queued or running work is abandoned
		// with "deadline exceeded".
		if d := time.Duration(spec.DeadlineMs) * time.Millisecond; d < timeout {
			timeout = d
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errClosed
	}
	if s.queue.Len() >= s.cfg.QueueCap {
		s.cRejected.Add(1)
		return nil, errQueueFull
	}
	if spec.DeadlineMs > 0 && sched.Hopeless(float64(spec.DeadlineMs), s.queue.Len(), s.cfg.Workers, s.ewmaServiceMs) {
		s.cShedHopeless.Add(1)
		return nil, errShedHopeless
	}
	s.seq++
	now := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	j := &job{
		id:        fmt.Sprintf("j%d", s.seq),
		seq:       s.seq,
		spec:      spec,
		priority:  spec.Priority,
		ctx:       ctx,
		cancel:    cancel,
		done:      make(chan struct{}),
		state:     StateQueued,
		submitted: now,
	}
	var deadline int64
	if spec.DeadlineMs > 0 {
		deadline = now.UnixMilli() + spec.DeadlineMs
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.queue.Push(sched.Item{ID: j.id, Priority: j.priority, Deadline: deadline, Payload: j})
	j.stop = context.AfterFunc(ctx, func() { s.dequeue(j) })
	s.cSubmitted.Add(1)
	s.gQueueDepth.Set(int64(s.queue.Len()))
	s.trimHistoryLocked()
	s.cond.Signal()
	return j, nil
}

// trimHistoryLocked drops the oldest terminal jobs once the history
// exceeds its cap, so a long-lived daemon's job table stays bounded.
// Callers hold s.mu.
func (s *Server) trimHistoryLocked() {
	const historyCap = 1024
	if len(s.order) <= historyCap {
		return
	}
	kept := s.order[:0]
	excess := len(s.order) - historyCap
	for _, id := range s.order {
		j := s.jobs[id]
		if excess > 0 && j.status().State.Terminal() {
			delete(s.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// lookup returns the job by ID.
func (s *Server) lookup(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// list snapshots every retained job's status in submission order.
func (s *Server) list() []JobStatus {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
	}
	return out
}

// dequeue ends a job that is still queued with its context's error and
// gives its admission-queue slot back at once; a job a worker has
// already popped is the worker's to end. The job's context runs it when
// it ends (submit), so a queued job is canceled, or failed with
// "deadline exceeded", at that moment.
func (s *Server) dequeue(j *job) {
	s.mu.Lock()
	queued := s.queue.Cancel(j.id)
	s.gQueueDepth.Set(int64(s.queue.Len()))
	s.mu.Unlock()
	if queued {
		s.finish(j, nil, false, nil, j.ctx.Err())
	}
}

// cancelJob cancels the job's context. It runs the context's dequeue
// itself instead of in the hook's goroutine, so a queued job is
// canceled, and server/queue_depth down, before it returns; a running
// job reaches canceled when the engine aborts. It reports whether the
// job was not yet terminal.
func (s *Server) cancelJob(j *job) bool {
	if j.status().State.Terminal() {
		return false
	}
	j.stop()
	j.cancel()
	s.dequeue(j)
	return true
}

// worker is one admission-queue consumer: it pops the highest-priority
// queued job, executes it, and repeats until the server is closed and
// the queue is drained.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for s.queue.Len() == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.queue.Len() == 0 {
			s.mu.Unlock()
			return
		}
		it, _ := s.queue.Pop()
		j := it.Payload.(*job)
		s.gQueueDepth.Set(int64(s.queue.Len()))
		s.mu.Unlock()

		// Out of the queue, the job is this worker's to end. One whose
		// context ended before the pop ends without executing, so no
		// expired job is answered from a cache.
		j.stop()
		if err := j.ctx.Err(); err != nil {
			s.finish(j, nil, false, nil, err)
			continue
		}
		j.mu.Lock()
		j.state = StateRunning
		j.started = time.Now()
		j.mu.Unlock()

		payload, executed, events, err := s.executeWithRetry(j.ctx, j.spec)
		s.finish(j, payload, executed, events, err)
	}
}

// executeWithRetry runs one spec, re-executing up to Config.RetryBudget
// times when the run died to a panic (fault-injected or real). Panics
// surface as typed *simjob.JobError values — never cached, so a retry
// genuinely re-runs the simulation, and the fault plan's per-attempt
// hashing means a retried job draws fresh fault decisions.
func (s *Server) executeWithRetry(ctx context.Context, spec JobSpec) (payload []byte, executed bool, events []trace.Event, err error) {
	for attempt := 0; ; attempt++ {
		payload, executed, events, err = s.execute(ctx, spec)
		if err == nil || !simjob.IsPanic(err) {
			return payload, executed, events, err
		}
		if attempt >= s.cfg.RetryBudget || ctx.Err() != nil {
			return payload, executed, events, err
		}
		s.cRetries.Add(1)
	}
}

// execute runs one spec to completion (or cancellation) and returns
// the result payload (the executor's JobResult marshalled, or the
// exact bytes a fleet peer served), whether a simulation actually
// executed (false = result cache, singleflight dedup or peer-cache
// hit), and any recorded trace events. All spec interpretation happens
// in jobspec/workloads — the server only wires its environment
// (s.env, the per-spec stall stream, the fleet) into the executor.
func (s *Server) execute(ctx context.Context, spec JobSpec) (payload []byte, executed bool, events []trace.Event, err error) {
	if s.cfg.Cluster != nil && !spec.Trace {
		// Fleet short-circuit: answer from this replica's own
		// finished-result index, else from the hash owner's payload
		// byte-for-byte, so fleet-served and locally-computed results
		// stay byte-identical. A payload that is not a result fails the
		// lookup (Node.Lookup) — the local compute below is always a
		// correct fallback.
		hash := spec.Hash()
		if payload, ok := s.results.Get(hash); ok {
			return payload, false, nil, nil
		}
		if payload, ok := s.peerLookup(ctx, hash); ok {
			return payload, false, nil, nil
		}
	}

	env := s.env
	if p := s.cfg.Faults; p != nil {
		// Key the stall stream by the full spec identity so the same
		// submission draws the same stalls on every run of the plan. A
		// two-benchmark multi spec keys as the pair spec it shares its
		// run and cached result with, so either spelling draws the same
		// stalls.
		kind, bench, benchB := spec.Kind, spec.Bench, spec.BenchB
		if a, b, ok := strings.Cut(bench, "+"); ok && kind == jobspec.KindMulti && !strings.Contains(b, "+") {
			kind, bench, benchB = jobspec.KindPair, a, b
		}
		faulted := *env
		faulted.Stall = p.EngineStallFunc(faults.Key(
			kind, bench, benchB, spec.Policy, strconv.FormatUint(spec.Seed, 10)))
		env = &faulted
	}
	ex := workloads.NewExecutor(env)

	var res JobResult
	if spec.Trace {
		res, events, err = ex.Record(ctx, spec)
		executed = true
	} else {
		res, executed, err = ex.Run(ctx, spec)
	}
	if err != nil {
		return nil, executed, nil, err
	}
	payload, err = json.Marshal(res)
	return payload, executed, events, err
}

// finish is a job's one terminal transition, run exactly once by
// whoever took the job out of the admission queue: the worker that
// popped it, or dequeue. It records the outcome (payload is the result
// bytes, stored verbatim), updates the server counters, releases the
// deadline timer, and wakes every waiter.
func (s *Server) finish(j *job, payload []byte, executed bool, events []trace.Event, err error) {
	now := time.Now()
	j.mu.Lock()
	j.finished = now
	switch {
	case err == nil:
		j.state = StateDone
		j.result = payload
		j.dedup = !executed
		j.events = events
	case errors.Is(err, context.Canceled):
		j.state = StateCanceled
		j.errMsg = context.Canceled.Error()
	case errors.Is(err, context.DeadlineExceeded):
		j.state = StateFailed
		j.errMsg = "deadline exceeded"
	default:
		j.state = StateFailed
		j.errMsg = err.Error()
	}
	state, dedup := j.state, j.dedup
	latency := now.Sub(j.submitted)
	j.mu.Unlock()

	switch state {
	case StateDone:
		s.cCompleted.Add(1)
		if dedup {
			s.cDeduped.Add(1)
		}
		if !j.spec.Trace && s.cleanResults() {
			// Feed the peer-cache index so other replicas (and the
			// front) can serve this result without recomputing.
			s.results.Put(j.spec.Hash(), payload)
		}
	case StateCanceled:
		s.cCanceled.Add(1)
	default:
		s.cFailed.Add(1)
	}
	latencyMs := float64(latency) / float64(time.Millisecond)
	if state == StateDone {
		// Fold the completed job's service time into the EWMA the
		// shed-on-hopeless predicate consults at admission.
		s.mu.Lock()
		if s.ewmaServiceMs == 0 {
			s.ewmaServiceMs = latencyMs
		} else {
			s.ewmaServiceMs += ewmaAlpha * (latencyMs - s.ewmaServiceMs)
		}
		s.mu.Unlock()
	}
	s.hLatency.Observe(latencyMs)
	s.record(j)
	j.cancel()
	close(j.done)
}

// record appends the job's terminal outcome to the workload trace
// recorder, when one is configured (Config.Record). Records are written
// at completion time, so the file is out of admission order; the
// jobspec reader re-sorts by Seq.
func (s *Server) record(j *job) {
	if s.rec == nil {
		return
	}
	j.mu.Lock()
	rec := jobspec.TraceRecord{
		Seq:       j.seq,
		ArrivalMs: float64(j.submitted.Sub(s.start)) / float64(time.Millisecond),
		Spec:      j.spec,
		Outcome:   string(j.state),
		Deduped:   j.dedup,
		Error:     j.errMsg,
	}
	j.mu.Unlock()
	if err := s.rec.Append(rec); err != nil {
		s.cRecordErrs.Add(1)
	}
}
