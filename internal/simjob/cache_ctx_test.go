package simjob

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func jobN(n int) Job { return Job{Kind: KindSolo, Benchmarks: fmt.Sprintf("j%d", n)} }

func TestCacheLRUCapEvicts(t *testing.T) {
	c := NewCache()
	c.SetLimit(2)
	for i := 0; i < 3; i++ {
		if _, err := c.Do(jobN(i), func() (any, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	// j0 is the LRU entry and must have been evicted; j1 and j2 stay.
	if got := c.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	if got := c.Stats().Evictions; got != 1 {
		t.Fatalf("Evictions = %d, want 1", got)
	}
	runs := 0
	if _, err := c.Do(jobN(0), func() (any, error) { runs++; return 0, nil }); err != nil {
		t.Fatal(err)
	}
	if runs != 1 {
		t.Fatalf("evicted job did not re-execute (runs=%d)", runs)
	}
}

func TestCacheLRUTouchOnHit(t *testing.T) {
	c := NewCache()
	c.SetLimit(2)
	mustDo := func(n int) {
		t.Helper()
		if _, err := c.Do(jobN(n), func() (any, error) { return n, nil }); err != nil {
			t.Fatal(err)
		}
	}
	mustDo(0)
	mustDo(1)
	mustDo(0) // hit: j0 becomes most recent
	mustDo(2) // evicts j1, not j0
	hitWithoutRun := func(n int) bool {
		ran := false
		if _, err := c.Do(jobN(n), func() (any, error) { ran = true; return n, nil }); err != nil {
			t.Fatal(err)
		}
		return !ran
	}
	if !hitWithoutRun(0) {
		t.Error("j0 was evicted despite being recently used")
	}
	if hitWithoutRun(1) {
		t.Error("j1 survived although it was the LRU entry")
	}
}

func TestCacheSetLimitShrinksExisting(t *testing.T) {
	c := NewCache()
	for i := 0; i < 5; i++ {
		if _, err := c.Do(jobN(i), func() (any, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	c.SetLimit(2)
	if got := c.Len(); got != 2 {
		t.Fatalf("Len after shrink = %d, want 2", got)
	}
	if got := c.Stats().Evictions; got != 3 {
		t.Fatalf("Evictions = %d, want 3", got)
	}
	// Removing the cap stops further eviction.
	c.SetLimit(0)
	for i := 5; i < 10; i++ {
		if _, err := c.Do(jobN(i), func() (any, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Len(); got != 7 {
		t.Fatalf("Len unbounded = %d, want 7", got)
	}
}

func TestDoContextWaiterAbandonsOnCancel(t *testing.T) {
	c := NewCache()
	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		_, _ = c.Do(jobN(1), func() (any, error) {
			close(started)
			<-release
			return 42, nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.DoContext(ctx, jobN(1), func(context.Context) (any, error) {
		t.Error("waiter must not execute")
		return nil, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	close(release)
	// The original execution completes and is cached.
	v, err := c.Do(jobN(1), func() (any, error) { return nil, errors.New("should be cached") })
	if err != nil || v.(int) != 42 {
		t.Fatalf("v=%v err=%v, want 42/nil", v, err)
	}
}

// TestDoContextCompletedEntryIgnoresCancelledCaller: a completed entry
// gives its value to a caller whose context is already cancelled, every
// time, and each call counts as a hit. Only a wait on an in-flight
// execution can be abandoned.
func TestDoContextCompletedEntryIgnoresCancelledCaller(t *testing.T) {
	c := NewCache()
	if _, err := c.Do(jobN(1), func() (any, error) { return 42, nil }); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	const calls = 1000
	for i := 0; i < calls; i++ {
		v, err := c.DoContext(ctx, jobN(1), func(context.Context) (any, error) {
			t.Fatal("a completed entry must not execute")
			return nil, nil
		})
		if err != nil || v != 42 {
			t.Fatalf("call %d: v=%v err=%v, want 42/nil", i, v, err)
		}
	}
	if st := c.Stats(); st.CacheHits != calls || st.JobsRun != 1 {
		t.Fatalf("stats = %+v, want %d hits and 1 run", st, calls)
	}
}

func TestDoContextWaiterTakesOverCancelledExecution(t *testing.T) {
	c := NewCache()
	started := make(chan struct{})
	ctx1, cancel1 := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := c.DoContext(ctx1, jobN(1), func(ctx context.Context) (any, error) {
			close(started)
			<-ctx.Done() // simulate an engine run stopping on cancel
			return nil, ctx.Err()
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("executor err = %v, want context.Canceled", err)
		}
	}()
	<-started
	done := make(chan struct{})
	var v any
	var err error
	go func() {
		defer close(done)
		v, err = c.DoContext(context.Background(), jobN(1), func(context.Context) (any, error) {
			return "recomputed", nil
		})
	}()
	// Give the second caller a moment to enter the singleflight wait,
	// then cancel the executor.
	time.Sleep(10 * time.Millisecond)
	cancel1()
	wg.Wait()
	<-done
	if err != nil || v != "recomputed" {
		t.Fatalf("surviving waiter got v=%v err=%v, want recomputed/nil", v, err)
	}
	// The takeover's successful result is cached.
	ran := false
	if _, err := c.Do(jobN(1), func() (any, error) { ran = true; return nil, nil }); err != nil || ran {
		t.Fatalf("takeover result not cached (ran=%v err=%v)", ran, err)
	}
}

func TestDoContextCancelledExecutionNotCached(t *testing.T) {
	c := NewCache()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.DoContext(ctx, jobN(1), func(ctx context.Context) (any, error) {
		return nil, ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	v, err := c.Do(jobN(1), func() (any, error) { return "fresh", nil })
	if err != nil || v != "fresh" {
		t.Fatalf("v=%v err=%v, want fresh/nil", v, err)
	}
	st := c.Stats()
	if st.JobsRun != 2 || st.Errors != 1 {
		t.Fatalf("stats = %+v, want 2 runs / 1 error", st)
	}
}

func TestStatsPublishIncludesEvictions(t *testing.T) {
	c := NewCache()
	c.SetLimit(1)
	for i := 0; i < 3; i++ {
		if _, err := c.Do(jobN(i), func() (any, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Stats().Evictions; got != 2 {
		t.Fatalf("Evictions = %d, want 2", got)
	}
}
