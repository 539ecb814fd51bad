package simjob

import (
	"sync/atomic"
	"time"

	"chimera/internal/metrics"
)

// Stats is a snapshot of scheduling and cache activity. Pool.Stats
// reports one pool; GlobalStats aggregates every pool and cache in the
// process (what the chimerasim -progress ticker displays).
type Stats struct {
	// TasksQueued counts batch tasks submitted through Map.
	TasksQueued int64
	// TasksRunning counts batch tasks currently executing.
	TasksRunning int64
	// TasksDone counts batch tasks that finished (ok or not).
	TasksDone int64
	// JobsRun counts simulations actually executed (cache misses).
	JobsRun int64
	// CacheHits counts Cache.Do calls served without executing
	// (including singleflight waits on an in-flight duplicate).
	CacheHits int64
	// Errors counts executed jobs that returned an error.
	Errors int64
	// JobTime is the cumulative wall time of executed jobs — at
	// parallelism N it exceeds elapsed time by up to a factor of N.
	JobTime time.Duration
	// Evictions counts results dropped by a cache's LRU cap
	// (Cache.SetLimit); zero for unbounded caches.
	Evictions int64
	// Panics counts executions recovered into a typed *JobError
	// (included in Errors as well; a panicked job is a failed job).
	Panics int64
}

// counters is the lock-free mutable form of Stats, embedded in Cache and
// Pool. Every update is mirrored into the process-wide global counters.
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

// global aggregates all pools and caches in the process.
var global counters

func (c *counters) hit() {
	c.cacheHits.Add(1)
	if c != &global {
		global.cacheHits.Add(1)
	}
}

func (c *counters) ran(d time.Duration, failed bool) {
	c.jobsRun.Add(1)
	c.jobTimeNs.Add(int64(d))
	if failed {
		c.errors.Add(1)
	}
	if c != &global {
		global.jobsRun.Add(1)
		global.jobTimeNs.Add(int64(d))
		if failed {
			global.errors.Add(1)
		}
	}
}

func (c *counters) panicked() {
	c.panics.Add(1)
	if c != &global {
		global.panics.Add(1)
	}
}

func (c *counters) evicted() {
	c.evictions.Add(1)
	if c != &global {
		global.evictions.Add(1)
	}
}

func (c *counters) taskQueued(n int64) {
	c.tasksQueued.Add(n)
	if c != &global {
		global.tasksQueued.Add(n)
	}
}

func (c *counters) taskStarted() {
	c.tasksRunning.Add(1)
	if c != &global {
		global.tasksRunning.Add(1)
	}
}

func (c *counters) taskDone() {
	c.tasksRunning.Add(-1)
	c.tasksDone.Add(1)
	if c != &global {
		global.tasksRunning.Add(-1)
		global.tasksDone.Add(1)
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

// GlobalStats returns the process-wide aggregate across every pool and
// cache.
func GlobalStats() Stats { return global.snapshot() }

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
