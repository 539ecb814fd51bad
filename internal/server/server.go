// Package server implements chimerad's HTTP/JSON simulation service: a
// bounded worker pool with priority admission control over the simjob
// result cache, per-job deadlines and cooperative cancellation threaded
// down to the engine event loop, and live observability (Prometheus
// /metrics, SSE job progress, Perfetto trace export).
//
// The API surface is documented in docs/server.md; the wire types live
// in api.go and are shared with the typed client in
// internal/server/client.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"chimera/internal/cluster"
	"chimera/internal/faults"
	"chimera/internal/jobspec"
	"chimera/internal/metrics"
	"chimera/internal/sched"
	"chimera/internal/simjob"
	"chimera/internal/trace"
	"chimera/internal/workloads"
)

// Config parameterizes a Server. The zero value is usable: it yields
// two workers, a 64-deep admission queue, an uncapped result cache and
// a 60 s default job deadline. Jobs run against the shared Table 2
// catalog (kernels.Load()).
type Config struct {
	// Workers is the number of concurrent job executors (default 2).
	Workers int
	// QueueCap bounds the admission queue; submissions beyond it are
	// rejected with 429 (default 64).
	QueueCap int
	// CacheCap caps the simjob result cache entry count (LRU eviction);
	// 0 leaves the cache unbounded.
	CacheCap int
	// DefaultTimeout bounds jobs that set no timeout_ms (default 60 s).
	DefaultTimeout time.Duration
	// SSEInterval spaces SSE progress frames (default 250 ms).
	SSEInterval time.Duration
	// Registry receives the server's and the engines' metrics (default:
	// a fresh registry, exposed via Registry()).
	Registry *metrics.Registry
	// Faults, when set, activates the deterministic fault-injection
	// plan (internal/faults): job panics/slowdowns through the simjob
	// exec hook and engine technique stalls through the per-spec stall
	// injector. The plan's counters are published into Registry on
	// every /metrics scrape. Nil disables injection entirely.
	Faults *faults.Plan
	// RetryBudget is how many times a worker re-executes a job whose
	// run panicked (injected or real) before failing it; retries are
	// counted in server/job_retries. 0 disables retries.
	RetryBudget int
	// WatchdogK arms the engine preemption watchdog at k× the request's
	// estimated latency for every job this server runs (0 = off).
	WatchdogK float64
	// Record, when set, receives a versioned JSONL workload trace
	// (jobspec.TraceRecord): one line per admitted job at its terminal
	// state, carrying the arrival offset, the full normalized spec and
	// the outcome. The trace is the input format of chimerareplay and
	// the output format of chimeraload -record (docs/jobs.md).
	Record io.Writer
	// Cluster, when set, makes this server one replica of a fleet
	// (docs/cluster.md): before executing a job, the server looks in
	// its own finished-result index and then asks the first other
	// replica in the hash's ring sequence (Node.Lookup) for the finished
	// result over GET /internal/cache/{hash}, the route every server
	// serves its finished results on. Correctness never depends on it —
	// every miss or fetch error falls through to a local compute.
	Cluster *cluster.Node
}

// Server is the chimerad service core: admission queue, workers, job
// table and HTTP handlers. Create with New, mount Handler on an
// http.Server, stop with Shutdown.
type Server struct {
	cfg   Config
	reg   *metrics.Registry
	cache *simjob.Cache
	// env is the environment every job's spec runs in (New, execute).
	env   *workloads.Runner
	rec   *jobspec.TraceWriter
	start time.Time

	mu     sync.Mutex
	cond   *sync.Cond
	queue  sched.AdmissionQueue
	jobs   map[string]*job
	order  []string
	seq    int64
	closed bool
	wg     sync.WaitGroup
	// ewmaServiceMs estimates one job's submit-to-done service time
	// (guarded by mu); the shed-on-hopeless predicate consults it at
	// admission.
	ewmaServiceMs float64

	// results is the finished-result index behind GET
	// /internal/cache/{hash}: spec hash → terminal JobResult payload.
	// Peers (and the front) read it through the cluster peer-cache
	// protocol instead of recomputing.
	results *cluster.Results

	cSubmitted    *metrics.Counter
	cCompleted    *metrics.Counter
	cFailed       *metrics.Counter
	cCanceled     *metrics.Counter
	cRejected     *metrics.Counter
	cShedHopeless *metrics.Counter
	cDeduped      *metrics.Counter
	cRetries      *metrics.Counter
	cRecordErrs   *metrics.Counter
	gQueueDepth   *metrics.Counter
	hLatency      *metrics.Histogram
	cPeerHits     *metrics.Counter
	cPeerMisses   *metrics.Counter
	cPeerErrors   *metrics.Counter
	cPeerServed   *metrics.Counter
}

// Metric names exposed on /metrics, as package-level constants
// (enforced by chimeravet's schemaconst analyzer) so docs/server.md and
// the Prometheus exposition cannot silently drift from the code.
const (
	// MetricJobsSubmitted counts jobs admitted past validation.
	MetricJobsSubmitted = "server/jobs_submitted"
	// MetricJobsCompleted counts jobs that finished successfully.
	MetricJobsCompleted = "server/jobs_completed"
	// MetricJobsFailed counts jobs that finished with an error.
	MetricJobsFailed = "server/jobs_failed"
	// MetricJobsCanceled counts jobs cancelled before completing.
	MetricJobsCanceled = "server/jobs_canceled"
	// MetricJobsRejected counts submissions refused by admission control.
	MetricJobsRejected = "server/jobs_rejected"
	// MetricShedHopeless counts deadlined submissions shed because
	// their predicted completion already exceeded deadline_ms.
	MetricShedHopeless = "server/shed_hopeless"
	// MetricJobsDeduped counts jobs served from the simjob cache.
	MetricJobsDeduped = "server/jobs_deduped"
	// MetricQueueDepth gauges the current admission-queue length.
	MetricQueueDepth = "server/queue_depth"
	// MetricJobRetries counts worker re-executions of jobs whose run
	// panicked (Config.RetryBudget).
	MetricJobRetries = "server/job_retries"
	// MetricJobLatency is the submission-to-terminal service-time
	// histogram of every job, whatever its end.
	MetricJobLatency = "server/job_latency_ms"
	// MetricRecordErrors counts workload-trace records that failed to
	// write (Config.Record); the job itself is unaffected.
	MetricRecordErrors = "server/record_errors"
	// MetricPeerHits counts jobs served from another replica's peer
	// cache instead of recomputing (Config.Cluster).
	MetricPeerHits = "server/peer_hits"
	// MetricPeerMisses counts peer-cache lookups where no consulted
	// peer held the result (the job then computes locally).
	MetricPeerMisses = "server/peer_misses"
	// MetricPeerErrors counts peer-cache lookups that failed: in
	// transport (dead owner, timeout), with an unexpected status, or
	// with a payload that is not a job result (cluster.ValidPayload).
	// The job computes locally.
	MetricPeerErrors = "server/peer_errors"
	// MetricPeerServed counts finished results this replica served to
	// peers over GET /internal/cache/{hash}.
	MetricPeerServed = "server/peer_served"
)

// latencyBoundsMs buckets the job service-time histogram (milliseconds).
var latencyBoundsMs = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 30000}

// New builds a Server and starts its workers.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 64
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 60 * time.Second
	}
	if cfg.SSEInterval <= 0 {
		cfg.SSEInterval = 250 * time.Millisecond
	}
	if cfg.Registry == nil {
		cfg.Registry = metrics.NewRegistry()
	}
	cache := simjob.NewCache()
	cache.SetLimit(cfg.CacheCap)
	env := workloads.NewEnv(cache)
	env.Metrics = cfg.Registry
	env.Watchdog = cfg.WatchdogK
	if cfg.Faults != nil {
		cache.SetExecHook(cfg.Faults.SimjobHook())
		// The plan's fingerprint in the cache variant keeps faulted
		// results from shadowing clean ones.
		env.Variant = cfg.Faults.Fingerprint()
	}
	s := &Server{
		cfg:     cfg,
		reg:     cfg.Registry,
		cache:   cache,
		env:     env,
		jobs:    make(map[string]*job),
		results: cluster.NewResults(),

		cSubmitted:    cfg.Registry.Counter(MetricJobsSubmitted),
		cCompleted:    cfg.Registry.Counter(MetricJobsCompleted),
		cFailed:       cfg.Registry.Counter(MetricJobsFailed),
		cCanceled:     cfg.Registry.Counter(MetricJobsCanceled),
		cRejected:     cfg.Registry.Counter(MetricJobsRejected),
		cShedHopeless: cfg.Registry.Counter(MetricShedHopeless),
		cDeduped:      cfg.Registry.Counter(MetricJobsDeduped),
		cRetries:      cfg.Registry.Counter(MetricJobRetries),
		cRecordErrs:   cfg.Registry.Counter(MetricRecordErrors),
		gQueueDepth:   cfg.Registry.Counter(MetricQueueDepth),
		hLatency:      cfg.Registry.Histogram(MetricJobLatency, "ms", latencyBoundsMs),
		cPeerHits:     cfg.Registry.Counter(MetricPeerHits),
		cPeerMisses:   cfg.Registry.Counter(MetricPeerMisses),
		cPeerErrors:   cfg.Registry.Counter(MetricPeerErrors),
		cPeerServed:   cfg.Registry.Counter(MetricPeerServed),

		start: time.Now(),
	}
	if cfg.Record != nil {
		s.rec = jobspec.NewTraceWriter(cfg.Record)
	}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Registry exposes the metrics registry the server reports into.
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Cache exposes the simjob result cache jobs execute through. It holds
// the server's one set of job counters, which feed the SSE progress
// frames and /metrics.
func (s *Server) Cache() *simjob.Cache { return s.cache }

// Shutdown stops admission and waits for queued and running jobs to
// drain. If ctx expires first every outstanding job is cancelled, the
// (now fast) drain is awaited, and ctx's error is returned. Either way
// every job is terminal when Shutdown returns.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	all := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		all = append(all, j)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		// A job its context took out of the queue may still be ending
		// in that context's hook.
		for _, j := range all {
			<-j.done
		}
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Queued jobs first, so that a worker freed by a cancelled run
		// starts none of them.
		for _, j := range all {
			if j.status().State == StateQueued {
				s.cancelJob(j)
			}
		}
		for _, j := range all {
			s.cancelJob(j)
		}
		<-done
		return ctx.Err()
	}
}

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /api/v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /api/v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /api/v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET "+cluster.CachePathPrefix+"{hash}", s.handlePeerCache)
	return mux
}

// handlePeerCache serves the cluster peer-cache protocol
// (docs/cluster.md): a pure read of the finished-result index, 200
// with the terminal JobResult payload or 404. It never computes.
func (s *Server) handlePeerCache(w http.ResponseWriter, r *http.Request) {
	payload, ok := s.results.Get(r.PathValue("hash"))
	if !ok {
		writeError(w, http.StatusNotFound, "no finished result for that hash")
		return
	}
	s.cPeerServed.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(payload)
}

// cleanResults reports whether this server's results may enter the
// finished-result index. A watchdog or armed engine stalls change
// result payloads (workloads keys such runs apart in the simjob cache),
// so a server running either keeps its results out of the index: a
// peer or the front would serve them under the clean spec hash.
func (s *Server) cleanResults() bool {
	return s.cfg.WatchdogK == 0 && (s.cfg.Faults == nil || s.cfg.Faults.Config().EngineStall <= 0)
}

// peerLookup consults the fleet for an already-finished result before
// this replica recomputes it. It returns the exact payload the owner
// served (kept byte-for-byte so fleet results stay identical to
// single-node results) or false to compute locally — any error path
// degrades to a miss.
func (s *Server) peerLookup(ctx context.Context, hash string) ([]byte, bool) {
	payload, _, err := s.cfg.Cluster.Lookup(ctx, hash)
	switch {
	case err == nil:
		s.cPeerHits.Add(1)
		return payload, true
	case errors.Is(err, cluster.ErrCacheMiss):
		s.cPeerMisses.Add(1)
	default:
		s.cPeerErrors.Add(1)
	}
	return nil, false
}

// writeJSON renders one JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// writeError renders the JSON error envelope.
func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

// handleSubmit admits one job (202 + status). ?wait=1 blocks until the
// job is terminal and returns its final status (200); abandoning a
// waited request cancels the job.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := jobspec.Decode(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid job spec: %v", err)
		return
	}
	spec.Normalize()
	if err := spec.Validate(s.env.Catalog()); err != nil {
		writeError(w, http.StatusBadRequest, "invalid job spec: %v", err)
		return
	}

	j, err := s.submit(spec)
	switch {
	case errors.Is(err, errQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "%v", err)
		return
	case errors.Is(err, errShedHopeless):
		// No Retry-After: the deadline is the client's — retrying the
		// same deadline against the same backlog stays hopeless.
		writeError(w, http.StatusTooManyRequests, "%v", err)
		return
	case errors.Is(err, errClosed):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}

	if r.URL.Query().Get("wait") == "1" {
		select {
		case <-j.done:
			writeJSON(w, http.StatusOK, j.status())
		case <-r.Context().Done():
			// The submitter walked away; nobody is left to claim the
			// result, so stop the run.
			s.cancelJob(j)
			<-j.done
		}
		return
	}
	w.Header().Set("Location", "/api/v1/jobs/"+j.id)
	writeJSON(w, http.StatusAccepted, j.status())
}

// handleList returns every retained job's status in submission order.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.list())
}

// handleStatus returns one job's status; with Accept: text/event-stream
// it streams SSE progress frames until the job is terminal.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	if strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		s.streamStatus(w, r, j)
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// streamStatus serves the SSE progress stream for one job: a "status"
// event (JobStatus JSON with live cache stats) every SSEInterval and on
// every state change, then a final "done" event with the terminal
// status.
func (s *Server) streamStatus(w http.ResponseWriter, r *http.Request, j *job) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	emit := func(event string, st JobStatus) bool {
		payload, err := json.Marshal(st)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, payload); err != nil {
			return false
		}
		fl.Flush()
		return true
	}

	tick := time.NewTicker(s.cfg.SSEInterval)
	defer tick.Stop()
	for {
		st := j.status()
		if st.State.Terminal() {
			emit("done", st)
			return
		}
		stats := s.cache.Stats()
		st.Stats = &stats
		if !emit("status", st) {
			return
		}
		select {
		case <-j.done:
		case <-tick.C:
		case <-r.Context().Done():
			return
		}
	}
}

// handleCancel cancels one job. 202 when the cancellation was accepted,
// 409 when the job is already terminal.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	if !s.cancelJob(j) {
		writeError(w, http.StatusConflict, "job already %s", j.status().State)
		return
	}
	writeJSON(w, http.StatusAccepted, j.status())
}

// handleResult serves a completed job's deterministic result payload.
// 409 until the job is terminal; failed and canceled jobs get their
// error.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	st := j.status()
	switch st.State {
	case StateDone:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(st.Result)
	case StateFailed, StateCanceled:
		writeError(w, http.StatusConflict, "job %s: %s", st.State, st.Error)
	default:
		writeError(w, http.StatusConflict, "job still %s", st.State)
	}
}

// handleTrace streams a traced job's Perfetto/Chrome trace-event JSON.
// 404 when the job recorded no trace, 409 until it is done.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	st := j.status()
	if !st.State.Terminal() {
		writeError(w, http.StatusConflict, "job still %s", st.State)
		return
	}
	j.mu.Lock()
	events := j.events
	j.mu.Unlock()
	if !j.spec.Trace || st.State != StateDone {
		writeError(w, http.StatusNotFound, "job has no trace")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = trace.WritePerfetto(w, events)
}

// handleMetrics serves the registry in Prometheus text exposition
// format, refreshing the simjob cache counters first.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.cache.Stats().Publish(s.reg)
	if s.cfg.Faults != nil {
		s.cfg.Faults.Publish(s.reg)
	}
	s.mu.Lock()
	s.gQueueDepth.Set(int64(s.queue.Len()))
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = s.reg.WritePrometheus(w)
}

// handleHealthz reports liveness ("ok", or 503 while shutting down).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		writeError(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}
