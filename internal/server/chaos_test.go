// Chaos regression: the ISSUE acceptance scenario. A seeded fault plan
// injects simjob worker panics and HTTP 503s/connection resets around a
// live server; the retrying typed client must still observe exactly one
// result per submitted job, and the resilience counters must match what
// the plan reports having injected.
//
// The file lives in the external test package so it can use the typed
// client (internal/server/client imports internal/server).
package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"chimera/internal/engine"
	"chimera/internal/faults"
	"chimera/internal/jobspec"
	"chimera/internal/metrics"
	"chimera/internal/server"
	"chimera/internal/server/client"
	"chimera/internal/simjob"
)

// chaosClient builds a client that retries aggressively but never
// actually sleeps, so injected faults cost no test wall-time.
func chaosClient(base string) *client.Client {
	return client.New(base,
		client.WithMaxAttempts(8),
		client.WithSleep(func(ctx context.Context, d time.Duration) error { return ctx.Err() }),
		client.WithRand(func() float64 { return 0.5 }),
	)
}

// TestChaosExactlyOnceUnderFaults: every simjob execution's first
// attempt panics (JobPanic 1, cap 1) and a quarter of HTTP requests are
// 503'd or reset, yet with a retry budget of 1 every submission
// completes with exactly one result, nothing is lost or duplicated, and
// simjob/panics and server/job_retries equal the plan's injected panic
// count.
func TestChaosExactlyOnceUnderFaults(t *testing.T) {
	reg := metrics.NewRegistry()
	plan := faults.New(faults.Config{
		Seed:            42,
		JobPanic:        1,
		MaxPanicsPerJob: 1,
		HTTPError:       0.25,
		HTTPReset:       0.25,
		MaxHTTPFaults:   3,
	})
	srv := server.New(server.Config{
		Workers:     2,
		Registry:    reg,
		Faults:      plan,
		RetryBudget: 1,
	})
	ts := httptest.NewServer(plan.Middleware(srv.Handler()))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	c := chaosClient(ts.URL)

	const jobs = 6
	ctx := context.Background()
	for i := 0; i < jobs; i++ {
		spec := server.JobSpec{
			Kind:     jobspec.KindSolo,
			Bench:    "SAD",
			WindowUs: 100,
			// Distinct seeds make every submission a distinct simjob, so
			// the panic count below is exact rather than cache-dependent.
			Seed: uint64(1000 + i),
		}
		st, err := c.SubmitWait(ctx, spec)
		if err != nil {
			t.Fatalf("job %d: submit: %v", i, err)
		}
		if st.State != server.StateDone {
			t.Fatalf("job %d: finished %s (%s), want done", i, st.State, st.Error)
		}
		if len(st.Result) == 0 {
			t.Fatalf("job %d: done without result", i)
		}
		// The GET leg runs the connection-reset gauntlet; the payload it
		// retrieves must be the one the job produced.
		body, err := c.Result(ctx, st.ID)
		if err != nil {
			t.Fatalf("job %d: result: %v", i, err)
		}
		if !bytes.Equal(bytes.TrimSpace(body), []byte(st.Result)) {
			t.Fatalf("job %d: result body %q != status result %q", i, body, st.Result)
		}
	}

	// No lost and no duplicated jobs: one server-side record per
	// submission, all done. (Injected 503s reject before admission, so
	// a retried POST can never double-admit.)
	list, err := c.List(ctx)
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	if len(list) != jobs {
		t.Fatalf("server retained %d jobs, want %d", len(list), jobs)
	}
	for _, st := range list {
		if st.State != server.StateDone {
			t.Errorf("job %s: state %s, want done", st.ID, st.State)
		}
	}

	counts := plan.Counts()
	if counts.JobPanics != jobs {
		t.Errorf("plan injected %d panics, want %d (one per distinct job)", counts.JobPanics, jobs)
	}
	if got := srv.Cache().Stats().Panics; got != counts.JobPanics {
		t.Errorf("simjob cache recovered %d panics, plan injected %d", got, counts.JobPanics)
	}
	if got := reg.Counter(server.MetricJobRetries).Value(); got != counts.JobPanics {
		t.Errorf("%s = %d, want %d (every panic retried exactly once)",
			server.MetricJobRetries, got, counts.JobPanics)
	}
	if counts.HTTPErrors+counts.HTTPResets == 0 {
		t.Error("plan injected no HTTP faults; the gauntlet tested nothing")
	}

	// The fault and resilience counters surface on /metrics.
	body, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	for _, want := range []string{
		"chimera_simjob_panics",
		"chimera_server_job_retries",
		"chimera_faults_job_panics",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	// Guard the constants the assertions above rely on.
	if simjob.MetricPanics != "simjob/panics" {
		t.Errorf("unexpected simjob panic metric name %q", simjob.MetricPanics)
	}
}

// TestChaosEscalationCountersMatchPlan: injected engine stalls are
// rescued by the armed watchdog, and the engine's preempt/stalls_injected
// counter agrees exactly with the plan's EngineStalls count while
// preempt/escalations records at least one rescue per stall.
func TestChaosEscalationCountersMatchPlan(t *testing.T) {
	reg := metrics.NewRegistry()
	plan := faults.New(faults.Config{
		Seed:            7,
		EngineStall:     1,
		StallFactor:     30,
		MaxStallsPerRun: 2,
	})
	srv := server.New(server.Config{
		Workers:   1,
		Registry:  reg,
		Faults:    plan,
		WatchdogK: 2,
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	c := chaosClient(ts.URL)

	// Drain baseline with a roomy constraint: estimates are finite (so
	// stalls scale off them) and the watchdog fires well before the
	// periodic task's deadline kill.
	st, err := c.SubmitWait(context.Background(), server.JobSpec{
		Kind:         jobspec.KindPeriodic,
		Bench:        "BS",
		Policy:       jobspec.PolicyDrain,
		WindowUs:     4000,
		ConstraintUs: 600,
		Seed:         7,
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if st.State != server.StateDone {
		t.Fatalf("job finished %s (%s), want done", st.State, st.Error)
	}

	counts := plan.Counts()
	if counts.EngineStalls == 0 {
		t.Fatal("plan injected no engine stalls")
	}
	if got := reg.Counter(engine.MetricStallsInjected).Value(); got != counts.EngineStalls {
		t.Errorf("%s = %d, plan injected %d", engine.MetricStallsInjected, got, counts.EngineStalls)
	}
	if got := reg.Counter(engine.MetricEscalations).Value(); got < counts.EngineStalls {
		t.Errorf("%s = %d, want >= %d (every stalled request rescued)",
			engine.MetricEscalations, got, counts.EngineStalls)
	}
}

// TestChaosPairAndMultiSpellingsDrawSameStalls: a pair spec and the
// two-benchmark multi spec of the same benchmarks share one run and its
// cached result, so under a stall plan both spellings must draw the
// same stalls. Whichever spelling a fresh server runs first, both
// submissions then read the same ANTT, STP and request count.
func TestChaosPairAndMultiSpellingsDrawSameStalls(t *testing.T) {
	pair := server.JobSpec{Kind: jobspec.KindPair, Bench: "LUD", BenchB: "HS", WindowUs: 2000, Seed: 3}
	multi := server.JobSpec{Kind: jobspec.KindMulti, Bench: "LUD+HS", WindowUs: 2000, Seed: 3}
	type outcome struct {
		antt, stp float64
		requests  int
	}
	// run submits both specs, in order, to a fresh server under the same
	// stall plan and returns their outcomes in submission order.
	run := func(specs ...server.JobSpec) []outcome {
		plan := faults.New(faults.Config{Seed: 11, EngineStall: 0.5, StallFactor: 30})
		srv := server.New(server.Config{Workers: 1, Faults: plan})
		ts := httptest.NewServer(srv.Handler())
		defer func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				t.Errorf("shutdown: %v", err)
			}
		}()
		c := chaosClient(ts.URL)
		var out []outcome
		for _, spec := range specs {
			st, err := c.SubmitWait(context.Background(), spec)
			if err != nil {
				t.Fatalf("%s %s: submit: %v", spec.Kind, spec.Bench, err)
			}
			if st.State != server.StateDone {
				t.Fatalf("%s %s: finished %s (%s), want done", spec.Kind, spec.Bench, st.State, st.Error)
			}
			var res server.JobResult
			if err := json.Unmarshal(st.Result, &res); err != nil {
				t.Fatalf("%s %s: result: %v", spec.Kind, spec.Bench, err)
			}
			switch {
			case res.Pair != nil:
				out = append(out, outcome{res.Pair.ANTT, res.Pair.STP, res.Pair.Requests})
			case res.Multi != nil:
				out = append(out, outcome{res.Multi.ANTT, res.Multi.STP, res.Multi.Requests})
			default:
				t.Fatalf("%s %s: result %s carries neither a pair nor a multi payload", spec.Kind, spec.Bench, st.Result)
			}
		}
		if plan.Counts().EngineStalls == 0 {
			t.Fatal("plan injected no engine stalls; the spellings' stall streams were never compared")
		}
		return out
	}
	pairFirst := run(pair, multi)
	multiFirst := run(multi, pair)
	want := pairFirst[0]
	for _, got := range []outcome{pairFirst[1], multiFirst[0], multiFirst[1]} {
		if got != want {
			t.Errorf("outcomes differ with submission order: pair first %+v, multi first %+v", pairFirst, multiFirst)
			break
		}
	}
}
