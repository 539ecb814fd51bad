package simjob

import (
	"context"
	"errors"
	"runtime"
	"runtime/debug"
	"sync"
)

// Pool bounds the parallelism of a batch of simulation jobs and routes
// their results through a Cache. It is cheap to construct — the workers
// are goroutines Map starts per task, admitted through a semaphore — so
// every experiment runner can carry its own Pool while sharing the
// process-wide cache.
type Pool struct {
	parallelism int
	sem         chan struct{}
	cache       *Cache
	stats       counters

	mu       sync.Mutex
	progress func(Stats)
}

// NewPool builds a pool that runs at most parallelism tasks at once
// (<= 0 means GOMAXPROCS) over the given cache (nil means the
// process-wide SharedCache).
func NewPool(parallelism int, cache *Cache) *Pool {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if cache == nil {
		cache = SharedCache()
	}
	return &Pool{
		parallelism: parallelism,
		sem:         make(chan struct{}, parallelism),
		cache:       cache,
	}
}

// Parallelism reports the worker bound.
func (p *Pool) Parallelism() int { return p.parallelism }

// Cache exposes the pool's result cache.
func (p *Pool) Cache() *Cache { return p.cache }

// SetProgress installs a hook invoked (serially) after every task
// completion with a snapshot of the pool's stats.
func (p *Pool) SetProgress(fn func(Stats)) {
	p.mu.Lock()
	p.progress = fn
	p.mu.Unlock()
}

// Do computes (or fetches) one job through the pool's cache, on the
// calling goroutine. It does not consume a worker slot: nested Do calls
// from inside a running task (a periodic job fetching its solo-rate
// baseline) therefore cannot deadlock the pool.
func (p *Pool) Do(job Job, fn func() (any, error)) (any, error) {
	return p.DoContext(context.Background(), job, func(context.Context) (any, error) { return fn() })
}

// DoContext is Do with cancellation threaded through the cache's
// singleflight (see Cache.DoContext for the semantics).
func (p *Pool) DoContext(ctx context.Context, job Job, fn func(context.Context) (any, error)) (any, error) {
	v, err, executed, dur := p.cache.doJob(ctx, job, fn)
	// Attribute the cache activity to this pool's counters as well. The
	// cache already mirrored it into the global aggregate, so bypass the
	// counters' own mirroring by updating fields directly.
	if executed {
		p.stats.jobsRun.Add(1)
		p.stats.jobTimeNs.Add(int64(dur))
		if err != nil {
			p.stats.errors.Add(1)
			// Count only a panic recovered from THIS execution. A nested
			// Do's *JobError (a composite job propagating its inner solo's
			// panic) carries the inner job's identity and was already
			// counted when that execution unwound.
			var je *JobError
			if errors.As(err, &je) && je.Job == job {
				p.stats.panics.Add(1)
			}
		}
	} else {
		p.stats.cacheHits.Add(1)
	}
	return v, err
}

// Map runs fn(i) for every i in [0, n) as one flat task list on the
// pool, at most Parallelism at once, and returns the results in index
// order, or the first error by index (every task runs to completion
// regardless; a panicking task fails as a *JobError). It is the one
// fan-out behind every batch of simulations: results land by index,
// never by completion order, so anything assembled from them is
// byte-identical at any parallelism. Map may be called concurrently;
// fn must not call Map on the same pool (it would wait for worker slots
// its caller holds) but may use Do freely. Map takes no context: it is
// a structured-concurrency barrier that must wait for its tasks to
// unwind, and cancellation reaches them through the contexts fn closes
// over.
func Map[T any](p *Pool, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	tasks := make([]func() error, n)
	for i := range tasks {
		tasks[i] = func() (err error) {
			out[i], err = fn(i)
			return err
		}
	}
	if err := p.run(tasks...); err != nil {
		return nil, err
	}
	return out, nil
}

// run executes the tasks with at most Parallelism of them in flight,
// waits for all of them, and returns the first error in task order.
func (p *Pool) run(tasks ...func() error) error {
	p.stats.taskQueued(int64(len(tasks)))
	errs := make([]error, len(tasks))
	var wg sync.WaitGroup
	for i, task := range tasks {
		wg.Add(1)
		go func(i int, task func() error) {
			defer wg.Done()
			p.sem <- struct{}{}
			defer func() { <-p.sem }()
			p.stats.taskStarted()
			defer p.notifyDone()
			defer func() {
				if r := recover(); r != nil {
					p.stats.panicked()
					errs[i] = &JobError{Task: i, Value: r, Stack: debug.Stack()}
				}
			}()
			errs[i] = task()
		}(i, task)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// notifyDone updates completion counters and fires the progress hook.
func (p *Pool) notifyDone() {
	p.stats.taskDone()
	p.mu.Lock()
	fn := p.progress
	p.mu.Unlock()
	if fn != nil {
		fn(p.stats.snapshot())
	}
}

// Stats returns a snapshot of the pool's counters. Cache hits and jobs
// run are attributed to every pool whose Do observed them, so a pool's
// numbers describe its own traffic; use GlobalStats for the process-wide
// view.
func (p *Pool) Stats() Stats { return p.stats.snapshot() }
