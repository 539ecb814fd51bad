package workloads

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"chimera/internal/engine"
	"chimera/internal/jobspec"
	"chimera/internal/simjob"
)

// TestRecordMatchesRun: the traced Executor.Record simulates every
// periodic spec from cycle 0, while Executor.Run of a spec longer than
// one period forks a shared warm-up. Both must agree on the periods,
// the violations and the requests.
func TestRecordMatchesRun(t *testing.T) {
	e, _ := isolatedExecutor(t, 3000, 2)
	for _, bench := range []string{"SAD", "LUD", "MUM"} {
		for _, policy := range []string{jobspec.PolicyChimera, jobspec.PolicyDrain} {
			for _, est := range []string{"", "online"} {
				spec := jobspec.Periodic(bench, policy).WithWindowUs(3000).WithSeed(3)
				spec.Estimator = est
				res, executed := mustRun(t, e, spec)
				if !executed {
					t.Fatalf("%s %s %q: the first run was a cache hit", bench, policy, est)
				}
				rec, _, err := e.Record(context.Background(), spec)
				if err != nil {
					t.Fatal(err)
				}
				p, tr := res.Periodic, rec.Trace
				violations := int(p.ViolationRate*float64(p.Periods) + 0.5)
				if p.Periods != tr.Periods || violations != tr.Violations || len(p.Outcomes) != tr.Requests {
					t.Errorf("%s %s %q: Run has %d periods, %d violations, %d requests; Record %d, %d, %d",
						bench, policy, est, p.Periods, violations, len(p.Outcomes), tr.Periods, tr.Violations, tr.Requests)
				}
			}
		}
	}
}

// TestPeriodicRunSharesItsWarmupWithItsSoloBaseline: a periodic run
// (warm, oracle) and the solo baseline it fetches fork one warm-up,
// simulated once; a window of one period simulates none.
func TestPeriodicRunSharesItsWarmupWithItsSoloBaseline(t *testing.T) {
	e, cache := isolatedExecutor(t, 3000, 1)
	mustRun(t, e, jobspec.Periodic("HS", jobspec.PolicyChimera).WithWindowUs(3000))
	if st := cache.Side(0).Stats(); st.JobsRun != 1 || st.CacheHits != 1 {
		t.Errorf("warm-up memo: %d simulated, %d hits; want 1 and 1", st.JobsRun, st.CacheHits)
	}
	if st := cache.Stats(); st.JobsRun != 2 {
		t.Errorf("result cache: %d jobs simulated, want the periodic run and its solo baseline", st.JobsRun)
	}
	mustRun(t, e, jobspec.Periodic("BS", jobspec.PolicyChimera).WithWindowUs(1000))
	if st := cache.Side(0).Stats(); st.JobsRun != 1 {
		t.Errorf("a one-period run simulated a warm-up (%d simulated)", st.JobsRun)
	}
}

// TestCancelledWarmupIsNotMemoized: a warm-up whose run is cancelled is
// dropped from the memo, and the run waiting on it simulates it again
// instead of inheriting the cancellation.
func TestCancelledWarmupIsNotMemoized(t *testing.T) {
	r, cache := isolatedRunner(t, 3000, 2)
	memo := cache.Side(0)
	entered, release := make(chan struct{}), make(chan struct{})
	var execs atomic.Int32
	memo.SetExecHook(func(simjob.Job) {
		if execs.Add(1) == 1 {
			close(entered)
			<-release
		}
	})
	run := func(ctx context.Context) (*engine.Simulation, error) {
		return r.simulate(ctx, simjob.KindPeriodic, []string{"SAD"}, engine.ChimeraPolicy{}, nil)
	}

	ctx, cancel := context.WithCancel(context.Background())
	first := make(chan error, 1)
	go func() {
		_, err := run(ctx)
		first <- err
	}()
	<-entered
	type outcome struct {
		sim *engine.Simulation
		err error
	}
	second := make(chan outcome, 1)
	go func() {
		sim, err := run(context.Background())
		second <- outcome{sim, err}
	}()
	for memo.Stats().CacheHits == 0 {
		time.Sleep(time.Millisecond) // until the second run waits on the first's warm-up
	}
	cancel()
	close(release)

	if err := <-first; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v", err)
	}
	got := <-second
	if got.err != nil {
		t.Fatalf("waiting run returned %v", got.err)
	}
	if st := memo.Stats(); st.JobsRun != 2 || st.Errors != 1 || memo.Len() != 1 {
		t.Errorf("memo: %d warm-ups simulated, %d failed, %d held; want 2, 1 and 1", st.JobsRun, st.Errors, memo.Len())
	}
	want, err := run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if a, b := want.ProcessUseful("SAD"), got.sim.ProcessUseful("SAD"); a != b {
		t.Errorf("the re-simulated warm-up's fork credits %d instructions, a later fork %d", b, a)
	}
}
