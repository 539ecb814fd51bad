// Command chimerachaos runs a seeded chaos campaign against an
// in-process chimerad service core and asserts the resilience
// invariants the fault plane (docs/faults.md) is supposed to uphold:
//
//   - no lost jobs: every submission reaches a terminal state and is
//     retained by the server, exactly once;
//   - no duplicate results: job IDs are unique and the result payload
//     fetched over the faulted GET path is byte-identical to the one
//     the submission returned;
//   - every response is either correct or a typed failure — with the
//     panic cap within the retry budget, every job must end done;
//   - the metrics are consistent with the plan: recovered simjob
//     panics and worker retries equal the plan's injected panic count,
//     and the engine's injected-stall counter equals the plan's stall
//     count with at least one watchdog escalation per stall.
//
// The campaign is deterministic end to end: same -seed and -jobs,
// bit-identical report (diff two runs to prove it). Exit status is 0
// when every invariant holds, 1 otherwise.
//
// Usage:
//
//	chimerachaos -seed 1 -jobs 200
//
// Flags:
//
//	-seed N          campaign seed: drives the fault plan and the
//	                 per-job simulation seeds (default 1)
//	-jobs N          number of jobs to submit (default 200)
//	-retry-budget N  server-side re-executions per panicked job
//	                 (default 3: a pair job spans three simulations,
//	                 each of which may draw one panic)
//	-watchdog K      engine watchdog multiple (default 2)
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"chimera/internal/engine"
	"chimera/internal/faults"
	"chimera/internal/jobspec"
	"chimera/internal/metrics"
	"chimera/internal/server"
	"chimera/internal/server/client"
)

func main() {
	seed := flag.Uint64("seed", 1, "campaign seed")
	jobs := flag.Int("jobs", 200, "number of jobs to submit")
	budget := flag.Int("retry-budget", 3, "server-side re-executions per panicked job")
	watchdog := flag.Float64("watchdog", 2, "engine watchdog multiple")
	flag.Parse()

	violations, err := run(*seed, *jobs, *budget, *watchdog)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chimerachaos: %v\n", err)
		os.Exit(1)
	}
	if violations > 0 {
		os.Exit(1)
	}
}

// campaignPlan is the fault mix every campaign runs: every domain
// active, shaped so that a bounded retry budget always converges (panic
// cap 1 per job) and a bounded client attempt count always gets through
// (HTTP faults capped per kind).
func campaignPlan(seed uint64) *faults.Plan {
	return faults.New(faults.Config{
		Seed:            seed,
		JobPanic:        0.5,
		MaxPanicsPerJob: 1,
		JobSlowdown:     0.2,
		SlowdownDelay:   100 * time.Microsecond,
		EngineStall:     0.3,
		StallFactor:     20,
		MaxStallsPerRun: 2,
		HTTPError:       0.1,
		HTTPReset:       0.1,
		HTTPDelay:       0.05,
		HTTPDelayAmount: 200 * time.Microsecond,
		MaxHTTPFaults:   40,
		Sleep:           time.Sleep,
	})
}

// specFor derives the i-th job of a campaign. The mix cycles through
// solo, periodic and pair scenarios over two benchmarks; every job gets
// a unique simulation seed so nothing is served from the cache and the
// injected-panic accounting stays exact.
func specFor(seed uint64, i int) server.JobSpec {
	benches := []string{"BS", "SAD"}
	bench := benches[i%len(benches)]
	jobSeed := seed*1_000_003 + uint64(i) + 1
	var spec jobspec.Spec
	switch {
	case i%7 == 3:
		spec = jobspec.Pair(bench, benches[(i+1)%len(benches)], jobspec.PolicyChimera).
			WithWindowUs(500)
	case i%3 == 0:
		spec = jobspec.Solo(bench).WithWindowUs(200)
	default:
		// Drain baseline with a roomy constraint: finite estimates for
		// stalls to scale off, and a watchdog rescue that lands well
		// before the periodic task's deadline kill. The 1800 µs window
		// keeps every injected stall's watchdog check inside the run.
		spec = jobspec.Periodic(bench, jobspec.PolicyDrain).
			WithWindowUs(1800).WithConstraintUs(600)
	}
	return spec.WithSeed(jobSeed)
}

// withRetry re-invokes fn while it reports a retryable failure. The
// typed client already retries transport errors and 503s internally;
// this outer loop only absorbs the rare deterministic case where the
// plan spends more consecutive faults on one logical call than the
// client's attempt budget.
func withRetry[T any](fn func() (T, error)) (T, error) {
	var v T
	var err error
	for i := 0; i < 25; i++ {
		if v, err = fn(); err == nil {
			return v, nil
		}
	}
	return v, err
}

// run executes the campaign and prints the deterministic report.
func run(seed uint64, jobs, budget int, watchdog float64) (violations int, err error) {
	plan := campaignPlan(seed)
	reg := metrics.NewRegistry()
	srv := server.New(server.Config{
		Workers:  2,
		QueueCap: jobs + 8,
		// A tight LRU cap keeps the result cache evicting under load, so
		// the campaign also exercises re-execution of evicted entries.
		CacheCap:       32,
		Registry:       reg,
		Faults:         plan,
		RetryBudget:    budget,
		WatchdogK:      watchdog,
		DefaultTimeout: 5 * time.Minute,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	hs := &http.Server{Handler: plan.Middleware(srv.Handler())}
	go func() { _ = hs.Serve(ln) }()
	defer func() {
		_ = hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()

	c := client.New("http://"+ln.Addr().String(),
		client.WithMaxAttempts(8),
		client.WithBaseDelay(time.Millisecond),
		client.WithRand(func() float64 { return 0 }),
	)

	fmt.Printf("chimerachaos: campaign seed=%d jobs=%d retry-budget=%d watchdog=%g\n",
		seed, jobs, budget, watchdog)
	fmt.Printf("chimerachaos: plan %s\n", plan.Fingerprint())

	fail := func(format string, args ...any) {
		violations++
		fmt.Printf("chimerachaos: VIOLATION: %s\n", fmt.Sprintf(format, args...))
	}

	// Submit serially with ?wait=1 so the request sequence — and with
	// it every index-hashed HTTP fault decision — is deterministic.
	ctx := context.Background()
	ids := make(map[string]int, jobs)
	done := 0
	for i := 0; i < jobs; i++ {
		spec := specFor(seed, i)
		st, err := withRetry(func() (server.JobStatus, error) { return c.SubmitWait(ctx, spec) })
		if err != nil {
			fail("job %d: lost to submit error: %v", i, err)
			continue
		}
		if prev, dup := ids[st.ID]; dup {
			fail("job %d: duplicate id %s (also job %d)", i, st.ID, prev)
			continue
		}
		ids[st.ID] = i
		if st.State != server.StateDone {
			fail("job %d (%s): finished %s: %s", i, st.ID, st.State, st.Error)
			continue
		}
		if len(st.Result) == 0 {
			fail("job %d (%s): done without result", i, st.ID)
			continue
		}
		// Re-fetch over the faulted GET path: the payload must match
		// the one the submission returned (exactly-one result).
		body, err := withRetry(func() ([]byte, error) { return c.Result(ctx, st.ID) })
		if err != nil {
			fail("job %d (%s): result fetch: %v", i, st.ID, err)
			continue
		}
		if !bytes.Equal(bytes.TrimSpace(body), []byte(st.Result)) {
			fail("job %d (%s): result mismatch between wait and fetch", i, st.ID)
			continue
		}
		done++
	}

	// Server-side retention: exactly one record per submission.
	list, err := withRetry(func() ([]server.JobStatus, error) { return c.List(ctx) })
	if err != nil {
		return violations, fmt.Errorf("list: %w", err)
	}
	if len(list) != jobs {
		fail("server retained %d jobs, want %d", len(list), jobs)
	}
	for _, st := range list {
		if _, ok := ids[st.ID]; !ok {
			fail("server retained job %s that was never acknowledged", st.ID)
		}
	}

	counts := plan.Counts()
	cache := srv.Cache().Stats()
	retries := reg.Counter(server.MetricJobRetries).Value()
	stalls := reg.Counter(engine.MetricStallsInjected).Value()
	escalations := reg.Counter(engine.MetricEscalations).Value()

	if cache.Panics != counts.JobPanics {
		fail("cache recovered %d panics, plan injected %d", cache.Panics, counts.JobPanics)
	}
	if retries != counts.JobPanics {
		fail("%s = %d, want %d (every injected panic retried exactly once)",
			server.MetricJobRetries, retries, counts.JobPanics)
	}
	if stalls != counts.EngineStalls {
		fail("%s = %d, plan injected %d", engine.MetricStallsInjected, stalls, counts.EngineStalls)
	}
	if escalations < counts.EngineStalls {
		fail("%s = %d, want >= %d (every stalled request rescued)",
			engine.MetricEscalations, escalations, counts.EngineStalls)
	}
	if got := reg.Counter(server.MetricJobsFailed).Value(); got != 0 {
		fail("%s = %d, want 0", server.MetricJobsFailed, got)
	}
	if jobs > 32 && cache.Evictions == 0 {
		fail("cache never evicted under load (%d jobs over a 32-entry cap)", jobs)
	}

	fmt.Printf("chimerachaos: jobs submitted=%d done=%d\n", jobs, done)
	fmt.Printf("chimerachaos: injected panics=%d slowdowns=%d stalls=%d 503s=%d resets=%d delays=%d\n",
		counts.JobPanics, counts.JobSlowdowns, counts.EngineStalls,
		counts.HTTPErrors, counts.HTTPResets, counts.HTTPDelays)
	fmt.Printf("chimerachaos: recovered retries=%d escalations=%d pool_panics=%d evictions=%d\n",
		retries, escalations, cache.Panics, cache.Evictions)
	if violations == 0 {
		fmt.Println("chimerachaos: invariants OK")
	} else {
		fmt.Printf("chimerachaos: %d invariant violation(s)\n", violations)
	}
	return violations, nil
}
