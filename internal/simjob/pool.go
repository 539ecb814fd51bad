package simjob

import (
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Pool bounds the parallelism of a batch of simulation jobs and routes
// their results through a Cache, which also counts the pool's tasks.
// It is cheap to construct — Map starts its workers per batch and
// admits each task through a semaphore — so every experiment runner can
// carry its own Pool while sharing the process-wide cache.
type Pool struct {
	sem   chan struct{}
	width int
	cache *Cache
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
	return &Pool{sem: make(chan struct{}, parallelism), width: parallelism, cache: cache}
}

// Width is the most tasks the pool runs at once.
func (p *Pool) Width() int { return p.width }

// Cache exposes the pool's result cache. Jobs are computed through it
// (Cache.DoContext) on the calling goroutine without consuming a worker
// slot, so nested jobs inside a running task (a periodic job fetching
// its solo-rate baseline) cannot deadlock the pool.
func (p *Pool) Cache() *Cache { return p.cache }

// Map runs fn(i) for every i in [0, n) as one flat task list on the
// pool, at most the pool's parallelism at once, and returns the results
// in index order, or the first error by index (every task runs to
// completion regardless; a panicking task fails as a *JobError). It is
// the one fan-out behind every batch of simulations: results land by
// index, never by completion order, so anything assembled from them is
// byte-identical at any parallelism. Map may be called concurrently;
// fn must not call Map on the same pool (it would wait for worker slots
// its caller holds) but may use the pool's Cache freely. Map takes no
// context: it is a structured-concurrency barrier that must wait for
// its tasks to unwind, and cancellation reaches them through the
// contexts fn closes over.
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

// run executes the tasks with at most the pool's parallelism in flight,
// counting them in the cache's Stats, waits for all of them, and
// returns the first error in task order. Up to Width workers take the
// tasks in index order, each holding one semaphore slot per task, so a
// one-wide pool runs a batch in order and concurrent batches share the
// pool's bound.
func (p *Pool) run(tasks ...func() error) error {
	p.cache.stats.tasksQueued.Add(int64(len(tasks)))
	errs := make([]error, len(tasks))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(p.width, len(tasks)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(tasks); i = int(next.Add(1)) - 1 {
				p.sem <- struct{}{}
				errs[i] = p.runTask(i, tasks[i])
				<-p.sem
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runTask runs task i, counting it in the cache's Stats; a panic
// becomes a *JobError carrying i.
func (p *Pool) runTask(i int, task func() error) (err error) {
	st := &p.cache.stats
	st.tasksRunning.Add(1)
	defer func() {
		if r := recover(); r != nil {
			st.panics.Add(1)
			err = &JobError{Task: i, Value: r, Stack: debug.Stack()}
		}
		st.tasksRunning.Add(-1)
		st.tasksDone.Add(1)
	}()
	return task()
}
