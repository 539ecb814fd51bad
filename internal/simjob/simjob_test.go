package simjob

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func job(bench string) Job {
	return Job{Kind: KindSolo, Benchmarks: bench, Seed: 1}
}

func TestCacheMemoizes(t *testing.T) {
	c := NewCache()
	calls := 0
	fn := func() (any, error) { calls++; return 42, nil }
	for i := 0; i < 3; i++ {
		v, err := c.Do(job("HS"), fn)
		if err != nil || v.(int) != 42 {
			t.Fatalf("Do = %v, %v", v, err)
		}
	}
	if calls != 1 {
		t.Errorf("fn ran %d times, want 1", calls)
	}
	if c.Len() != 1 {
		t.Errorf("cache holds %d entries, want 1", c.Len())
	}
	st := c.Stats()
	if st.JobsRun != 1 || st.CacheHits != 2 {
		t.Errorf("stats = %+v, want 1 run / 2 hits", st)
	}
}

func TestCacheDistinguishesJobs(t *testing.T) {
	c := NewCache()
	for _, k := range []Kind{KindSolo, KindPeriodic} {
		for _, seed := range []uint64{1, 2} {
			j := Job{Kind: k, Benchmarks: "HS", Seed: seed}
			if _, err := c.Do(j, func() (any, error) { return fmt.Sprint(k, seed), nil }); err != nil {
				t.Fatal(err)
			}
		}
	}
	if c.Len() != 4 {
		t.Errorf("cache holds %d entries, want 4 distinct jobs", c.Len())
	}
}

// TestCacheSingleflight floods one job with concurrent duplicate
// submissions and checks the simulation executed exactly once, with
// every caller observing its value.
func TestCacheSingleflight(t *testing.T) {
	c := NewCache()
	var calls atomic.Int64
	release := make(chan struct{})
	const waiters = 32
	var wg sync.WaitGroup
	vals := make([]any, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.Do(job("LUD"), func() (any, error) {
				calls.Add(1)
				<-release // hold the flight open until all waiters queued
				return "rate", nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[i] = v
		}(i)
	}
	// Let the waiters pile up behind the single in-flight execution.
	for c.Stats().CacheHits < waiters-1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Errorf("simulation executed %d times under %d concurrent submissions, want 1", n, waiters)
	}
	for i, v := range vals {
		if v != "rate" {
			t.Errorf("waiter %d observed %v", i, v)
		}
	}
}

// TestCacheErrorsNotCached checks a failed job is retried: the error is
// delivered to in-flight waiters but the key is not poisoned.
func TestCacheErrorsNotCached(t *testing.T) {
	c := NewCache()
	boom := errors.New("no progress")
	calls := 0
	fail := func() (any, error) { calls++; return nil, boom }
	if _, err := c.Do(job("BS"), fail); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if c.Len() != 0 {
		t.Fatalf("error result cached (%d entries)", c.Len())
	}
	// Second submission re-executes and may now succeed.
	v, err := c.Do(job("BS"), func() (any, error) { calls++; return 7, nil })
	if err != nil || v.(int) != 7 {
		t.Fatalf("retry = %v, %v", v, err)
	}
	if calls != 2 {
		t.Errorf("fn ran %d times, want 2 (error not cached)", calls)
	}
	if st := c.Stats(); st.Errors != 1 || st.JobsRun != 2 {
		t.Errorf("stats = %+v, want 1 error / 2 runs", st)
	}
}

func TestPoolRunBoundsParallelism(t *testing.T) {
	p := NewPool(3, NewCache())
	var running, peak atomic.Int64
	var tasks []func() error
	for i := 0; i < 20; i++ {
		tasks = append(tasks, func() error {
			n := running.Add(1)
			for {
				old := peak.Load()
				if n <= old || peak.CompareAndSwap(old, n) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			running.Add(-1)
			return nil
		})
	}
	if err := p.run(tasks...); err != nil {
		t.Fatal(err)
	}
	if peak.Load() > 3 {
		t.Errorf("peak concurrency %d exceeds parallelism 3", peak.Load())
	}
	st := p.Cache().Stats()
	if st.TasksQueued != 20 || st.TasksDone != 20 || st.TasksRunning != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPoolRunFirstErrorInTaskOrder(t *testing.T) {
	p := NewPool(4, NewCache())
	errA, errB := errors.New("a"), errors.New("b")
	ran := make([]bool, 4)
	err := p.run(
		func() error { ran[0] = true; time.Sleep(5 * time.Millisecond); return errA },
		func() error { ran[1] = true; return errB },
		func() error { ran[2] = true; return nil },
		func() error { ran[3] = true; return nil },
	)
	if !errors.Is(err, errA) {
		t.Errorf("err = %v, want first error in task order (a)", err)
	}
	for i, r := range ran {
		if !r {
			t.Errorf("task %d did not run to completion", i)
		}
	}
}

func TestPoolRunRecoversPanics(t *testing.T) {
	p := NewPool(2, NewCache())
	err := p.run(func() error { panic("kaboom") })
	if err == nil || !contains(err.Error(), "kaboom") {
		t.Errorf("panic not surfaced as error: %v", err)
	}
}

// TestMapIndexOrder checks results land by index, not completion order:
// later tasks finish first, and a serial and an eight-wide pool return
// the same slice.
func TestMapIndexOrder(t *testing.T) {
	const n = 16
	square := func(i int) (int, error) {
		time.Sleep(time.Duration(n-i) * 100 * time.Microsecond)
		return i * i, nil
	}
	for _, parallelism := range []int{1, 8} {
		p := NewPool(parallelism, NewCache())
		out, err := Map(p, n, square)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("parallelism %d: out[%d] = %d, want %d", parallelism, i, v, i*i)
			}
		}
		if st := p.Cache().Stats(); st.TasksQueued != n || st.TasksDone != n {
			t.Errorf("parallelism %d: stats = %+v, want %d tasks through the pool", parallelism, st, n)
		}
	}
}

// TestMapWidthOneRunsInIndexOrder: a one-wide pool runs a batch's
// tasks one after another in index order, so whatever they share (the
// warm-up memo's LRU) sees the same sequence on every run.
func TestMapWidthOneRunsInIndexOrder(t *testing.T) {
	const n = 200
	var order []int
	if _, err := Map(NewPool(1, NewCache()), n, func(i int) (int, error) {
		order = append(order, i) // one task at a time: no lock needed
		return i, nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("task %d ran in position %d (order starts %v)", got, i, order[:min(i+1, 10)])
		}
	}
}

// TestMapFirstErrorByIndex checks Map fails with the lowest-index error
// even when a later task fails first, after every task ran.
func TestMapFirstErrorByIndex(t *testing.T) {
	p := NewPool(4, NewCache())
	var ran atomic.Int64
	out, err := Map(p, 6, func(i int) (int, error) {
		ran.Add(1)
		switch i {
		case 1:
			time.Sleep(5 * time.Millisecond)
			return 0, fmt.Errorf("task %d", i)
		case 4:
			return 0, fmt.Errorf("task %d", i)
		}
		return i, nil
	})
	if err == nil || err.Error() != "task 1" {
		t.Errorf("err = %v, want the first error by index (task 1)", err)
	}
	if out != nil {
		t.Errorf("out = %v on error, want nil", out)
	}
	if ran.Load() != 6 {
		t.Errorf("%d tasks ran, want all 6", ran.Load())
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestPoolDoNested checks that a task running under a full pool can
// issue nested Do calls on the pool's cache (the periodic-job →
// solo-baseline dependency) without consuming extra worker slots.
func TestPoolDoNested(t *testing.T) {
	p := NewPool(1, NewCache()) // one slot: nested Do must not need a second
	err := p.run(func() error {
		outer, err := p.Cache().Do(Job{Kind: KindPeriodic, Benchmarks: "HS"}, func() (any, error) {
			inner, err := p.Cache().Do(Job{Kind: KindSolo, Benchmarks: "HS"}, func() (any, error) {
				return 2.0, nil
			})
			if err != nil {
				return nil, err
			}
			return inner.(float64) * 2, nil
		})
		if err != nil {
			return err
		}
		if outer.(float64) != 4.0 {
			return fmt.Errorf("outer = %v", outer)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCacheStatsAggregatePools checks that two pools over one cache
// count their tasks, runs and hits in that cache's Stats: the one book
// a process-wide view (SharedCache().Stats()) reads.
func TestCacheStatsAggregatePools(t *testing.T) {
	c := NewCache()
	a, b := NewPool(2, c), NewPool(3, c)
	for _, p := range []*Pool{a, b} {
		if _, err := Map(p, 3, func(i int) (any, error) {
			return p.Cache().Do(job(fmt.Sprint("aggregate-", i)), func() (any, error) { return i, nil })
		}); err != nil {
			t.Fatal(err)
		}
	}
	want := Stats{TasksQueued: 6, TasksDone: 6, JobsRun: 3, CacheHits: 3}
	st := c.Stats()
	st.JobTime = 0
	if st != want {
		t.Errorf("cache stats = %+v, want %+v", st, want)
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{KindSolo: "solo", KindPeriodic: "periodic", KindMulti: "multi"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
}
