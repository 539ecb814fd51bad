package workloads

import (
	"context"
	"reflect"
	"testing"

	"chimera/internal/engine"
	"chimera/internal/jobspec"
	"chimera/internal/simjob"
	"chimera/internal/units"
)

func newTestExecutor(t *testing.T) *Executor {
	t.Helper()
	r := newTestRunner(t, 1000, 15)
	r.UsePool(simjob.NewPool(2, simjob.NewCache()))
	return NewExecutor(r)
}

// TestExecutorMatchesRunner pins that a spec runs once and that the
// same simulation spelled differently (a display-label policy alias,
// scheduling metadata) is served from the cache with the identical
// result.
func TestExecutorMatchesRunner(t *testing.T) {
	e := newTestExecutor(t)
	ctx := context.Background()

	spec := jobspec.Periodic("SAD", jobspec.PolicyChimera).
		WithWindowUs(1000).WithConstraintUs(15).WithSeed(7)
	res, executed, err := e.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !executed {
		t.Error("first run reported a cache hit")
	}
	if res.Kind != jobspec.KindPeriodic || res.Periodic == nil {
		t.Fatalf("result = %+v, want periodic payload", res)
	}

	again, executed, err := e.Run(ctx, jobspec.Periodic("SAD", "Chimera").
		WithWindowUs(1000).WithConstraintUs(15).WithSeed(7).WithPriority(3))
	if err != nil {
		t.Fatal(err)
	}
	if executed {
		t.Error("the re-spelled spec re-executed a simulation already cached")
	}
	if !reflect.DeepEqual(again, res) {
		t.Errorf("re-spelled spec %+v != first run %+v", again.Periodic, res.Periodic)
	}
}

// TestPairIsTwoProcessRun pins that a pair spec is the two-process
// multi run: after the pair spec executes, the multi spec of the same
// two benchmarks, policy and parameters is a cache hit with equal
// metrics.
func TestPairIsTwoProcessRun(t *testing.T) {
	e := newTestExecutor(t)
	ctx := context.Background()
	for _, policy := range []string{jobspec.PolicyChimera, jobspec.PolicyFCFS} {
		spec := jobspec.Pair("HS", "SAD", policy).WithWindowUs(1000).WithConstraintUs(15).WithSeed(7)
		res, executed, err := e.Run(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if !executed || res.Pair == nil {
			t.Fatalf("%s: pair spec executed=%v result=%+v", policy, executed, res)
		}
		multi := spec
		multi.Kind, multi.Bench, multi.BenchB = jobspec.KindMulti, "HS+SAD", ""
		mr, executed, err := e.Run(ctx, multi)
		if err != nil {
			t.Fatal(err)
		}
		if executed {
			t.Errorf("%s: the multi spec re-simulated the pair spec's run", policy)
		}
		if m := mr.Multi; m.ANTT != res.Pair.ANTT || m.STP != res.Pair.STP || m.Requests != res.Pair.Requests || m.Policy != res.Pair.Policy {
			t.Errorf("%s: multi %+v != pair %+v", policy, *m, *res.Pair)
		}
	}
}

// TestExecutorKinds smoke-tests each kind through the spec path.
func TestExecutorKinds(t *testing.T) {
	e := newTestExecutor(t)
	ctx := context.Background()

	solo, _, err := e.Run(ctx, jobspec.Solo("SAD").WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if solo.SoloRate <= 0 {
		t.Errorf("solo rate = %v", solo.SoloRate)
	}

	pair, _, err := e.Run(ctx, jobspec.Pair("SAD", "MUM", jobspec.PolicyFCFS).WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if pair.Pair == nil || pair.Pair.Policy != "FCFS" {
		t.Errorf("pair result = %+v", pair.Pair)
	}

	if _, _, err := e.Run(ctx, jobspec.Solo("NOPE")); err == nil {
		t.Error("invalid spec accepted")
	}
}

// TestExecutorRunSpecs pins batch enumeration order.
func TestExecutorRunSpecs(t *testing.T) {
	e := newTestExecutor(t)
	specs := []jobspec.Spec{
		jobspec.Periodic("SAD", jobspec.PolicyDrain).WithSeed(7),
		jobspec.Solo("SAD").WithSeed(7),
		jobspec.Periodic("SAD", jobspec.PolicySwitch).WithSeed(7),
	}
	out, err := e.RunSpecs(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("got %d results", len(out))
	}
	if out[0].Periodic == nil || out[0].Periodic.Policy != "Drain" {
		t.Errorf("result 0 = %+v", out[0])
	}
	if out[1].SoloRate <= 0 {
		t.Errorf("result 1 = %+v", out[1])
	}
	if out[2].Periodic == nil || out[2].Periodic.Policy != "Switch" {
		t.Errorf("result 2 = %+v", out[2])
	}
}

// TestSpecHashIsSimJobIdentity pins the tentpole identity rule: under a
// fixed environment, equal Spec.Hash() ⇔ equal derived simjob.Job.
func TestSpecHashIsSimJobIdentity(t *testing.T) {
	e := newTestExecutor(t)
	specs := []jobspec.Spec{
		jobspec.Solo("SAD"),
		jobspec.Solo("SAD").WithSeed(1), // == default after Normalize
		jobspec.Solo("SAD").WithSeed(2),
		jobspec.Periodic("SAD", jobspec.PolicyChimera),
		jobspec.Periodic("SAD", "Chimera"), // alias spelling
		jobspec.Periodic("SAD", jobspec.PolicyDrain),
		jobspec.Periodic("SAD", jobspec.PolicyChimera).WithHeadroomUs(2),
		jobspec.Pair("SAD", "MUM", jobspec.PolicyChimera),
		jobspec.Pair("SAD", "MUM", jobspec.PolicyFCFS),
		jobspec.Pair("SAD", "MUM", jobspec.PolicyChimera).WithWindowUs(2000),
		jobspec.Periodic("SAD", jobspec.PolicyChimera).WithVariant("faults:abc"),
		// The variant policies each key apart, and a display label keys
		// as its canonical name.
		jobspec.Periodic("SAD", jobspec.PolicyFlushStrict),
		jobspec.Periodic("SAD", "Flush(strict)"),
		jobspec.Periodic("SAD", jobspec.PolicyChimeraOptimistic),
		jobspec.Periodic("SAD", jobspec.PolicyChimeraCycleEst),
		jobspec.Periodic("SAD", jobspec.PolicyChimeraPerSM),
		jobspec.Periodic("SAD", "Chimera(per-SM)"),
		{Kind: jobspec.KindMulti, Bench: "SAD+MUM+HS"},
		{Kind: jobspec.KindMulti, Bench: "SAD+MUM+HS", Policy: jobspec.PolicyFCFS},
		{Kind: jobspec.KindMulti, Bench: "HS+SAD+MUM"}, // process order matters
		// Scheduling metadata must perturb neither hash nor job.
		jobspec.Periodic("SAD", jobspec.PolicyChimera).WithPriority(5).WithTimeoutMs(100),
	}
	jobs := make(map[string]simjob.Job, len(specs))
	for _, s := range specs {
		job, err := e.SimJob(s)
		if err != nil {
			t.Fatalf("SimJob(%+v): %v", s, err)
		}
		h := s.Hash()
		if prev, ok := jobs[h]; ok {
			if prev != job {
				t.Errorf("hash %s maps to two distinct jobs:\n%+v\n%+v", h, prev, job)
			}
		} else {
			for ph, pj := range jobs {
				if pj == job {
					t.Errorf("hashes %s and %s map to the same job %+v", ph, h, job)
				}
			}
			jobs[h] = job
		}
	}
	// A solo run makes no preemption request, so its constraint cannot
	// change it: such specs hash apart (hashes split more eagerly than
	// jobs, never less) but map to the same job.
	soloA, soloB := jobspec.Solo("SAD"), jobspec.Solo("SAD").WithConstraintUs(30)
	jobA, errA := e.SimJob(soloA)
	jobB, errB := e.SimJob(soloB)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if soloA.Hash() == soloB.Hash() || jobA != jobB {
		t.Errorf("solo specs at 15 and 30 µs: hashes %s and %s, jobs equal %v; want distinct hashes, one job",
			soloA.Hash(), soloB.Hash(), jobA == jobB)
	}
	// A multi spec of two benchmarks is the pair spec's run: the two hash
	// apart (they return different payloads) but map to the same job.
	for _, policy := range []string{jobspec.PolicyChimera, jobspec.PolicyFCFS} {
		pair := jobspec.Pair("LUD", "HS", policy).WithConstraintUs(30)
		multi := jobspec.Spec{Kind: jobspec.KindMulti, Bench: "LUD+HS", Policy: policy}.WithConstraintUs(30)
		pj, errP := e.SimJob(pair)
		mj, errM := e.SimJob(multi)
		if errP != nil || errM != nil {
			t.Fatal(errP, errM)
		}
		if pair.Hash() == multi.Hash() || pj != mj {
			t.Errorf("%s: pair and multi LUD+HS: hashes %s and %s, jobs equal %v; want distinct hashes, one job",
				policy, pair.Hash(), multi.Hash(), pj == mj)
		}
	}
	// The derived job reflects the spec's parameters exactly.
	job, err := e.SimJob(jobspec.Periodic("SAD", jobspec.PolicyDrain).WithWindowUs(2000).WithSeed(9).WithHeadroomUs(3))
	if err != nil {
		t.Fatal(err)
	}
	if job.Window != units.FromMicroseconds(2000) || job.Seed != 9 || job.Headroom != units.FromMicroseconds(3) {
		t.Errorf("derived job %+v does not reflect spec parameters", job)
	}
	if job.Policy != jobspec.PolicyKey(engine.FixedPolicy{Technique: 1}, false) {
		t.Errorf("derived job policy key %q", job.Policy)
	}
}
