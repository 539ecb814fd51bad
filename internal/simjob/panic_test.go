package simjob

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// TestCachePanicIsolation: a job that panics surfaces as a typed
// *JobError, is counted in Panics, and does not poison the key — the
// next Do for the same job re-executes and can succeed.
func TestCachePanicIsolation(t *testing.T) {
	c := NewCache()
	calls := 0
	fn := func() (any, error) {
		calls++
		if calls == 1 {
			panic("injected")
		}
		return 7, nil
	}
	_, err := c.Do(job("BS"), fn)
	var je *JobError
	if !errors.As(err, &je) {
		t.Fatalf("want *JobError, got %T: %v", err, err)
	}
	if je.Value != "injected" || je.Task != -1 {
		t.Errorf("JobError = %+v, want Value=injected Task=-1", je)
	}
	if je.Job.Benchmarks != "BS" {
		t.Errorf("JobError.Job.Benchmarks = %q, want BS", je.Job.Benchmarks)
	}
	if len(je.Stack) == 0 {
		t.Error("JobError.Stack is empty")
	}
	if !IsPanic(err) {
		t.Error("IsPanic(err) = false")
	}
	if !strings.Contains(je.Error(), "panicked") {
		t.Errorf("Error() = %q", je.Error())
	}
	v, err := c.Do(job("BS"), fn)
	if err != nil || v != 7 {
		t.Fatalf("retry after panic: v=%v err=%v", v, err)
	}
	st := c.Stats()
	if st.Panics != 1 || st.Errors != 1 || st.JobsRun != 2 {
		t.Errorf("stats = %+v, want Panics=1 Errors=1 JobsRun=2", st)
	}
}

// TestCachePanicReachesWaiters: singleflight waiters on a panicking
// execution all observe the same typed error.
func TestCachePanicReachesWaiters(t *testing.T) {
	c := NewCache()
	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		c.Do(job("A"), func() (any, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started
	var wg sync.WaitGroup
	errsCh := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.DoContext(context.Background(), job("A"), func(context.Context) (any, error) {
				t.Error("waiter re-executed a non-cancelled panic")
				return nil, nil
			})
			errsCh <- err
		}()
	}
	// Waiters count their singleflight hit at arrival; wait for them.
	for c.Stats().CacheHits < 4 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	close(errsCh)
	for err := range errsCh {
		if !IsPanic(err) {
			t.Errorf("waiter got %v, want *JobError", err)
		}
	}
}

// TestExecHookInjectsPanic: a SetExecHook panic is isolated exactly
// like a panic from the job body, and clearing the hook restores clean
// execution.
func TestExecHookInjectsPanic(t *testing.T) {
	c := NewCache()
	c.SetExecHook(func(j Job) { panic("hook:" + j.Benchmarks) })
	_, err := c.Do(job("MM"), func() (any, error) { return 1, nil })
	var je *JobError
	if !errors.As(err, &je) || je.Value != "hook:MM" {
		t.Fatalf("want hook JobError, got %v", err)
	}
	c.SetExecHook(nil)
	v, err := c.Do(job("MM"), func() (any, error) { return 1, nil })
	if err != nil || v != 1 {
		t.Fatalf("after clearing hook: v=%v err=%v", v, err)
	}
}

// TestPoolRunPanicKeepsDraining: one panicking task yields a typed
// error while every other task still runs to completion.
func TestPoolRunPanicKeepsDraining(t *testing.T) {
	p := NewPool(2, NewCache())
	ran := make([]bool, 5)
	tasks := make([]func() error, 5)
	for i := range tasks {
		i := i
		tasks[i] = func() error {
			ran[i] = true
			if i == 2 {
				panic("task boom")
			}
			return nil
		}
	}
	err := p.run(tasks...)
	var je *JobError
	if !errors.As(err, &je) || je.Task != 2 {
		t.Fatalf("want *JobError{Task:2}, got %v", err)
	}
	for i, r := range ran {
		if !r {
			t.Errorf("task %d did not run", i)
		}
	}
	if st := p.Cache().Stats(); st.Panics != 1 || st.TasksDone != 5 {
		t.Errorf("stats = %+v, want Panics=1 TasksDone=5", st)
	}
}

// TestPoolDoAttributesPanics: a panic in a job a pool task computes
// through the pool's cache is counted once, in the cache's Stats (the
// task itself returns the typed error and does not panic).
func TestPoolDoAttributesPanics(t *testing.T) {
	p := NewPool(1, NewCache())
	_, err := Map(p, 1, func(int) (any, error) {
		return p.Cache().Do(job("C"), func() (any, error) { panic("x") })
	})
	if !IsPanic(err) {
		t.Fatalf("want panic error, got %v", err)
	}
	if st := p.Cache().Stats(); st.Panics != 1 || st.Errors != 1 {
		t.Errorf("cache stats = %+v, want Panics=1 Errors=1", st)
	}
}

// TestVariantSeparatesCacheKeys: identical parameters with different
// Variant values are distinct jobs.
func TestVariantSeparatesCacheKeys(t *testing.T) {
	c := NewCache()
	a := job("BS")
	b := job("BS")
	b.Variant = "faults:1"
	calls := 0
	fn := func() (any, error) { calls++; return calls, nil }
	va, _ := c.Do(a, fn)
	vb, _ := c.Do(b, fn)
	if va == vb {
		t.Fatalf("Variant did not separate cache keys: %v == %v", va, vb)
	}
}
