package simjob

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"
)

// JobError is the typed failure of a job whose execution panicked. The
// panic is confined to the one job: the cache drops the entry (errors
// are never cached), every singleflight waiter receives this error, and
// the pool keeps draining its remaining work. Callers distinguish it
// from ordinary failures with errors.As — chimerad uses that to retry
// panicked jobs within a budget.
type JobError struct {
	// Job identifies the panicked execution when it unwound a Cache
	// Do call (zero value for a bare Map task).
	Job Job
	// Task is the Map task index, or -1 for cache executions.
	Task int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack at recovery time.
	Stack []byte
}

// Error implements error.
func (e *JobError) Error() string {
	if e.Task >= 0 {
		return fmt.Sprintf("simjob: task %d panicked: %v", e.Task, e.Value)
	}
	return fmt.Sprintf("simjob: job %s/%s panicked: %v", e.Job.Kind, e.Job.Benchmarks, e.Value)
}

// IsPanic reports whether err unwraps to a JobError, i.e. the job
// failed by panicking rather than by returning an error.
func IsPanic(err error) bool {
	var je *JobError
	return errors.As(err, &je)
}

// Cache memoizes simulation results by Job with singleflight semantics:
// when several goroutines ask for the same Job concurrently, exactly one
// executes the simulation and the rest block until its result is ready.
// Successful results are cached (forever by default, or within an LRU
// cap set with SetLimit); errors are returned to every in-flight waiter
// but NOT cached, so a transient failure does not poison the key.
// Cancellation composes with the singleflight: a waiter whose context
// expires stops waiting (the execution continues for the others), and if
// the executing call itself was cancelled, surviving waiters re-execute
// instead of inheriting the cancellation.
type Cache struct {
	mu      sync.Mutex
	entries map[Job]*entry
	// limit caps the number of completed entries (0 = unbounded); lru
	// orders completed entries most-recently-used first. In-flight
	// computations are never evicted — waiters hold their entry.
	limit int
	lru   *list.List
	stats counters

	hookMu sync.RWMutex
	hook   func(Job)

	// side is the second cache kept beside this one (Side).
	sideOnce sync.Once
	side     *Cache
}

// entry is one in-flight or completed computation.
type entry struct {
	done chan struct{} // closed when val/err are set
	val  any
	err  error
	elem *list.Element // LRU position once completed (nil while in flight)
}

// NewCache returns an empty, unbounded cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[Job]*entry), lru: list.New()}
}

// shared is the process-wide cache: every exhibit of one chimerasim run
// draws from it, so e.g. the Figure 6 sweep pays for the §4.1 grid once
// and Figure 7, Figure 8's 15µs row and Figure 9's relaxed-flush column
// all hit.
var (
	sharedOnce sync.Once
	shared     *Cache
)

// SharedCache returns the process-wide cache.
func SharedCache() *Cache {
	sharedOnce.Do(func() { shared = NewCache() })
	return shared
}

// SetLimit caps the cache at n completed results, evicting the least
// recently used beyond that (n <= 0 removes the cap). A long-lived
// server must bound its cache; the one-shot CLI leaves it unbounded.
// Evictions are counted in Stats.Evictions.
func (c *Cache) SetLimit(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n < 0 {
		n = 0
	}
	c.limit = n
	c.enforceLimitLocked()
}

// Side returns the second cache kept beside this one, made on first
// use, with its LRU cap raised to at least n completed entries. It
// memoizes intermediate states that several jobs build on but that are
// no job's result (workloads keeps its simulated warm-ups there). It
// has its own entries, counters and exec hook, so this cache's Stats,
// its job keys and the fault plane's injection point (SetExecHook) see
// only results. It lives as long as this cache does.
func (c *Cache) Side(n int) *Cache {
	c.sideOnce.Do(func() { c.side = NewCache() })
	side := c.side
	side.mu.Lock()
	if n > side.limit {
		side.limit = n
	}
	side.mu.Unlock()
	return side
}

// enforceLimitLocked evicts LRU-tail entries until within the cap.
func (c *Cache) enforceLimitLocked() {
	if c.limit <= 0 {
		return
	}
	for c.lru.Len() > c.limit {
		tail := c.lru.Back()
		job := tail.Value.(Job)
		c.lru.Remove(tail)
		delete(c.entries, job)
		c.stats.evictions.Add(1)
	}
}

// SetExecHook installs a hook invoked on the executing goroutine just
// before every cache-miss execution (nil removes it). It is the fault
// plane's injection point: a hook may panic (isolated into a JobError
// exactly like a panic from the job itself) or sleep to simulate a slow
// worker. The hook sees only real executions — cache and singleflight
// hits bypass it.
func (c *Cache) SetExecHook(fn func(Job)) {
	c.hookMu.Lock()
	c.hook = fn
	c.hookMu.Unlock()
}

func (c *Cache) execHook() func(Job) {
	c.hookMu.RLock()
	defer c.hookMu.RUnlock()
	return c.hook
}

// Do returns the memoized result for job, computing it with fn on first
// use. Concurrent calls for the same job share one execution. fn runs on
// the caller's goroutine (the Pool provides worker-level parallelism);
// it must not call Do for the same job recursively.
func (c *Cache) Do(job Job, fn func() (any, error)) (any, error) {
	return c.DoContext(context.Background(), job, func(context.Context) (any, error) { return fn() })
}

// isCancellation reports whether err is a context cancellation or
// deadline error — the class of failures a surviving waiter retries.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// DoContext is Do with cancellation threaded through: fn receives ctx
// and should stop promptly when it is cancelled (the engine's RunContext
// does). A completed entry answers even a cancelled ctx. If this call
// ends up waiting on another goroutine's execution, a cancelled ctx
// abandons the wait and returns ctx.Err() — the execution itself
// continues for the remaining consumers. A cancelled execution's error
// is never cached, and waiters that are still live when the executor
// was cancelled re-execute the job themselves rather than inheriting
// the cancellation.
func (c *Cache) DoContext(ctx context.Context, job Job, fn func(context.Context) (any, error)) (any, error) {
	for {
		c.mu.Lock()
		if e, ok := c.entries[job]; ok {
			completed := e.elem != nil
			if completed {
				c.lru.MoveToFront(e.elem)
			}
			c.mu.Unlock()
			// The hit is counted at arrival — a singleflight wait on an
			// in-flight duplicate is a hit even before the value lands.
			c.stats.cacheHits.Add(1)
			if completed {
				// Whatever ctx says: only a wait can be abandoned.
				return e.val, nil
			}
			select {
			case <-e.done:
			case <-ctx.Done():
				// Abandon the wait; whoever executes keeps going.
				return nil, ctx.Err()
			}
			if isCancellation(e.err) && ctx.Err() == nil {
				// The executor was cancelled but this caller is live:
				// take over the computation (the failed entry was
				// already dropped by its executor).
				continue
			}
			return e.val, e.err
		}
		e := &entry{done: make(chan struct{})}
		c.entries[job] = e
		c.mu.Unlock()

		//chimera:allow wallclock measures host compute time for progress stats, never simulated time
		start := time.Now()
		e.val, e.err = c.runJob(ctx, job, fn)
		c.stats.ran(time.Since(start), e.err != nil) //chimera:allow wallclock host-side duration for Stats.JobTime, not sim state
		c.mu.Lock()
		if e.err != nil {
			// Errors are not cached: drop the entry before waking waiters
			// so the next Do retries the computation.
			delete(c.entries, job)
		} else {
			e.elem = c.lru.PushFront(job)
			c.enforceLimitLocked()
		}
		c.mu.Unlock()
		close(e.done)
		return e.val, e.err
	}
}

// runJob executes one cache miss with panic isolation: a panic from
// the exec hook or from fn itself is recovered into a *JobError so it
// poisons only this job (and its current singleflight waiters), never
// the pool or the process.
func (c *Cache) runJob(ctx context.Context, job Job, fn func(context.Context) (any, error)) (v any, err error) {
	defer func() {
		if r := recover(); r != nil {
			c.stats.panics.Add(1)
			v = nil
			err = &JobError{Job: job, Task: -1, Value: r, Stack: debug.Stack()}
		}
	}()
	if hook := c.execHook(); hook != nil {
		hook(job)
	}
	return fn(ctx)
}

// Len reports how many results are currently cached or in flight.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns a snapshot of the cache's counters: its Do calls and
// the Map tasks of every pool over it.
func (c *Cache) Stats() Stats { return c.stats.snapshot() }
