package workloads

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"chimera/internal/engine"
	"chimera/internal/jobspec"
	"chimera/internal/simjob"
	"chimera/internal/units"
)

// isolatedRunner builds a runner on a private cache, which it also
// returns, so tests can count exactly which simulations executed.
func isolatedRunner(t *testing.T, windowUs float64, parallelism int) (*Runner, *simjob.Cache) {
	t.Helper()
	r, err := NewRunner(units.FromMicroseconds(windowUs), units.FromMicroseconds(15), 7)
	if err != nil {
		t.Fatal(err)
	}
	cache := simjob.NewCache()
	return r.UsePool(simjob.NewPool(parallelism, cache)), cache
}

// isolatedExecutor is an Executor over isolatedRunner.
func isolatedExecutor(t *testing.T, windowUs float64, parallelism int) (*Executor, *simjob.Cache) {
	t.Helper()
	r, cache := isolatedRunner(t, windowUs, parallelism)
	return NewExecutor(r), cache
}

// TestConcurrentDuplicateRunsExecuteOnce hammers one periodic scenario
// from many goroutines: the simulation (and its solo baseline) must
// execute exactly once, with every caller seeing the identical result.
func TestConcurrentDuplicateRunsExecuteOnce(t *testing.T) {
	e, cache := isolatedExecutor(t, 3000, 4)
	spec := jobspec.Periodic("HS", jobspec.PolicyChimera).WithWindowUs(3000).WithSeed(7)
	const callers = 16
	results := make([]SpecResult, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, _, err := e.Run(context.Background(), spec)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Fatalf("caller %d saw a different result", i)
		}
	}
	// Exactly two simulations ran: the periodic scenario and its nested
	// solo-rate baseline.
	if st := cache.Stats(); st.JobsRun != 2 {
		t.Errorf("%d simulations executed, want 2 (periodic + solo)", st.JobsRun)
	}
}

// TestBatchMatchesSerial checks the fan-out path returns exactly what
// the serial path computes, in enumeration order: RunSpecs eight-wide
// against one-at-a-time Run calls on a private cache each.
func TestBatchMatchesSerial(t *testing.T) {
	var specs []jobspec.Spec
	for _, bench := range []string{"HS", "SAD", "BT"} {
		for _, policy := range []string{jobspec.PolicySwitch, jobspec.PolicyDrain, jobspec.PolicyFlush, jobspec.PolicyChimera} {
			specs = append(specs, jobspec.Periodic(bench, policy).WithWindowUs(3000).WithSeed(7))
		}
	}
	serial, _ := isolatedExecutor(t, 3000, 1)
	parallel, _ := isolatedExecutor(t, 3000, 8)

	batch, err := parallel.RunSpecs(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		want, _, err := serial.Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batch[i], want) {
			t.Errorf("%s/%s: batch %+v != serial %+v", spec.Bench, spec.Policy, batch[i].Periodic, want.Periodic)
		}
	}
}

// TestRunSpecsOrder checks results come back in spec order with the
// FCFS baseline and policies interleaved, as the figure harnesses
// enumerate them, and that a failing batch reports its first failure
// by index.
func TestRunSpecsOrder(t *testing.T) {
	e, _ := isolatedExecutor(t, 3000, 4)
	specs := []jobspec.Spec{
		jobspec.Pair("HS", "SAD", jobspec.PolicyFCFS).WithWindowUs(3000),
		jobspec.Pair("HS", "SAD", jobspec.PolicyChimera).WithWindowUs(3000),
		jobspec.Pair("HS", "HS", jobspec.PolicyChimera).WithWindowUs(3000),
	}
	results, err := e.RunSpecs(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(specs) {
		t.Fatalf("%d results", len(results))
	}
	wantPolicies := []string{"FCFS", "Chimera", "Chimera"}
	for i, res := range results {
		if res.Pair == nil || res.Pair.A != specs[i].Bench || res.Pair.B != specs[i].BenchB || res.Pair.Policy != wantPolicies[i] {
			t.Errorf("result %d = %+v, want spec %+v", i, res.Pair, specs[i])
		}
	}

	bad := []jobspec.Spec{specs[0], jobspec.Solo("NOPE1"), specs[1], jobspec.Solo("NOPE2")}
	if _, err := e.RunSpecs(context.Background(), bad); err == nil || !strings.Contains(err.Error(), "NOPE1") {
		t.Errorf("err = %v, want the first failing spec by index (NOPE1)", err)
	}
}

// TestRunMultiSharesSoloBaselines runs overlapping multi sets as one
// fan-out and checks the solo baselines were computed once per
// benchmark.
func TestRunMultiSharesSoloBaselines(t *testing.T) {
	e, cache := isolatedExecutor(t, 3000, 4)
	specs := []jobspec.Spec{
		{Kind: jobspec.KindMulti, Bench: "HS+SAD", WindowUs: 3000, Seed: 7},
		{Kind: jobspec.KindMulti, Bench: "HS+SAD+BT", WindowUs: 3000, Seed: 7},
	}
	results, err := e.RunSpecs(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Multi.Policy != "Chimera" || len(results[1].Multi.Benchmarks) != 3 {
		t.Errorf("results = %+v, %+v", results[0].Multi, results[1].Multi)
	}
	// Jobs executed: 2 multi runs + 3 distinct solo baselines (HS, SAD
	// shared between the sets).
	if st := cache.Stats(); st.JobsRun != 5 {
		t.Errorf("%d simulations executed, want 5 (2 multi + 3 solo)", st.JobsRun)
	}
}

// TestRunMultiCancelled checks a cancelled ctx aborts an N-process run
// and caches nothing, so a live retry simulates afresh.
func TestRunMultiCancelled(t *testing.T) {
	e, cache := isolatedExecutor(t, 3000, 2)
	spec := jobspec.Spec{Kind: jobspec.KindMulti, Bench: "HS+SAD+BT", WindowUs: 3000, Seed: 7}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := e.Run(ctx, spec); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := cache.Len(); n != 0 {
		t.Errorf("%d results cached after a cancelled run", n)
	}
	if _, executed, err := e.Run(context.Background(), spec); err != nil || !executed {
		t.Errorf("live retry: executed=%v err=%v, want a fresh simulation", executed, err)
	}
}

// TestErrorResultsRetriedThroughRunner checks an unknown benchmark's
// error is not cached at the runner level either (the Executor rejects
// such a spec before it reaches the cache).
func TestErrorResultsRetriedThroughRunner(t *testing.T) {
	r, cache := isolatedRunner(t, 3000, 2)
	if _, _, err := r.soloRate(context.Background(), "NOPE"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if _, _, err := r.soloRate(context.Background(), "NOPE"); err == nil {
		t.Fatal("unknown benchmark accepted on retry")
	}
	if st := cache.Stats(); st.JobsRun != 2 || st.Errors != 2 {
		t.Errorf("stats = %+v, want both failed attempts executed (errors not cached)", st)
	}
	if cache.Len() != 0 {
		t.Error("failed job left in cache")
	}
}

// TestPolicyKeyDistinguishesAblations guards the cache key against the
// policy-name collapse: every ablation flag combination must map to a
// distinct key even where Name() strings could coincide.
func TestPolicyKeyDistinguishesAblations(t *testing.T) {
	policies := []engine.Policy{
		engine.ChimeraPolicy{},
		engine.ChimeraPolicy{StrictIdempotence: true},
		engine.ChimeraPolicy{OptimisticCold: true},
		engine.ChimeraPolicy{CycleBased: true},
		engine.ChimeraPolicy{PerSMUniform: true},
		engine.ChimeraPolicy{OptimisticCold: true, CycleBased: true},
		engine.FixedPolicy{Technique: 0},
		engine.FixedPolicy{Technique: 2},
		engine.FixedPolicy{Technique: 2, StrictIdempotence: true},
		engine.FCFS{},
	}
	seen := map[string]int{}
	for i, p := range policies {
		k := jobspec.PolicyKey(p)
		if prev, dup := seen[k]; dup {
			t.Errorf("policies %d and %d share key %q", prev, i, k)
		}
		seen[k] = i
	}
	if k := jobspec.PolicyKey(engine.FCFS{}); k != "FCFS" {
		t.Errorf("FCFS key = %q", k)
	}
}
