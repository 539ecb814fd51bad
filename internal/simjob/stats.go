package simjob

import (
	"sync/atomic"
	"time"

	"chimera/internal/metrics"
)

// Stats is a snapshot of one cache's counters: every Do on the cache
// and every task of every Pool over it. SharedCache().Stats() is the
// process-wide view the chimerasim -progress ticker displays. Its JSON
// keys (chimerad's SSE status frames) follow the simjob/* metric names,
// with job time in nanoseconds.
type Stats struct {
	// TasksQueued counts batch tasks submitted through Map.
	TasksQueued int64 `json:"tasks_queued"`
	// TasksRunning counts batch tasks currently executing.
	TasksRunning int64 `json:"tasks_running"`
	// TasksDone counts batch tasks that finished (ok or not).
	TasksDone int64 `json:"tasks_done"`
	// JobsRun counts simulations actually executed (cache misses).
	JobsRun int64 `json:"jobs_run"`
	// CacheHits counts Cache.Do calls served without executing
	// (including singleflight waits on an in-flight duplicate).
	CacheHits int64 `json:"cache_hits"`
	// Errors counts executed jobs that returned an error.
	Errors int64 `json:"errors"`
	// JobTime is the cumulative wall time of executed jobs — at
	// parallelism N it exceeds elapsed time by up to a factor of N.
	// It marshals as nanoseconds.
	JobTime time.Duration `json:"job_time_ns"`
	// Evictions counts results dropped by the cache's LRU cap
	// (Cache.SetLimit); zero for unbounded caches.
	Evictions int64 `json:"evictions"`
	// Panics counts cache executions and Map tasks recovered into a
	// typed *JobError. A panicked execution counts in Errors as well (a
	// panicked job is a failed job).
	Panics int64 `json:"panics"`
}

// counters is the lock-free mutable form of Stats, embedded in Cache.
type counters struct {
	tasksQueued  atomic.Int64
	tasksRunning atomic.Int64
	tasksDone    atomic.Int64
	jobsRun      atomic.Int64
	cacheHits    atomic.Int64
	errors       atomic.Int64
	jobTimeNs    atomic.Int64
	evictions    atomic.Int64
	panics       atomic.Int64
}

func (c *counters) ran(d time.Duration, failed bool) {
	c.jobsRun.Add(1)
	c.jobTimeNs.Add(int64(d))
	if failed {
		c.errors.Add(1)
	}
}

func (c *counters) snapshot() Stats {
	return Stats{
		TasksQueued:  c.tasksQueued.Load(),
		TasksRunning: c.tasksRunning.Load(),
		TasksDone:    c.tasksDone.Load(),
		JobsRun:      c.jobsRun.Load(),
		CacheHits:    c.cacheHits.Load(),
		Errors:       c.errors.Load(),
		JobTime:      time.Duration(c.jobTimeNs.Load()),
		Evictions:    c.evictions.Load(),
		Panics:       c.panics.Load(),
	}
}

// Publish mirrors the snapshot into a metrics registry as simjob/*
// counters (job time in milliseconds), so a single Registry.Render shows
// scheduler activity next to the engine's own metrics.
func (s Stats) Publish(reg *metrics.Registry) {
	reg.Counter(MetricTasksQueued).Set(s.TasksQueued)
	reg.Counter(MetricTasksRunning).Set(s.TasksRunning)
	reg.Counter(MetricTasksDone).Set(s.TasksDone)
	reg.Counter(MetricJobsRun).Set(s.JobsRun)
	reg.Counter(MetricCacheHits).Set(s.CacheHits)
	reg.Counter(MetricErrors).Set(s.Errors)
	reg.Counter(MetricJobTime).Set(s.JobTime.Milliseconds())
	reg.Counter(MetricEvictions).Set(s.Evictions)
	reg.Counter(MetricPanics).Set(s.Panics)
}

// Metric names published by Stats.Publish, as package-level constants
// (enforced by chimeravet's schemaconst analyzer) so the schema in
// docs/observability.md cannot silently drift from the code.
const (
	// MetricTasksQueued counts tasks ever handed to a pool.
	MetricTasksQueued = "simjob/tasks_queued"
	// MetricTasksRunning gauges tasks currently holding a worker slot.
	MetricTasksRunning = "simjob/tasks_running"
	// MetricTasksDone counts tasks that finished (any outcome).
	MetricTasksDone = "simjob/tasks_done"
	// MetricJobsRun counts cache misses that executed a simulation.
	MetricJobsRun = "simjob/jobs_run"
	// MetricCacheHits counts jobs served from the memoizing cache.
	MetricCacheHits = "simjob/cache_hits"
	// MetricErrors counts failed job executions.
	MetricErrors = "simjob/errors"
	// MetricJobTime accumulates host compute time across jobs (ms).
	MetricJobTime = "simjob/job_time_ms"
	// MetricEvictions counts LRU evictions from the cache.
	MetricEvictions = "simjob/evictions"
	// MetricPanics counts executions recovered into a typed JobError.
	MetricPanics = "simjob/panics"
)
