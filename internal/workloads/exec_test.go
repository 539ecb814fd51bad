package workloads

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"strings"
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
	if job.Policy != jobspec.PolicyKey(engine.FixedPolicy{Technique: 1}) {
		t.Errorf("derived job policy key %q", job.Policy)
	}
}

// TestOnlineEstimatorGolden pins the online estimator's results, which
// no exhibit, chaos or replay campaign, smoke or benchmark workload
// runs: every benchmark's periodic spec under eight policies at a
// 3000 µs window and a 10 µs constraint, with estimator "online". Each
// golden row holds, in policy order, the first 8 hex digits of the
// SHA-256 of each spec's result payload (its JSON encoding). The oracle
// runs of the same specs must differ from the online ones somewhere, so
// the golden pins something the oracle identity gates do not.
func TestOnlineEstimatorGolden(t *testing.T) {
	policies := []string{
		jobspec.PolicyChimera, jobspec.PolicySwitch, jobspec.PolicyDrain, jobspec.PolicyFlush,
		jobspec.PolicyEDF, jobspec.PolicySLO, jobspec.PolicyChimeraOptimistic, jobspec.PolicyChimeraCycleEst,
	}
	golden := map[string]string{
		"BS":  "6c1a17e5 ed58e525 c80e3c4c 59c2654e 661be277 c8ca0354 0955374a 29b19b78",
		"BT":  "92e9d112 f0c023b5 14b61436 d08e6c79 4b761340 5de8f4f4 2e177115 eebccae0",
		"BP":  "98d11573 07eb79ba a867002a 0855b543 0c3bfd6c b9ca5c29 e70a3fba b2621b1b",
		"CP":  "676b7c15 d6cec52d 3eaada19 dcef26f1 307dcfed c0b52f18 e144b0f1 e24593e8",
		"FWT": "5800defb b07b0722 dd8541ef 39406ee6 35f8c168 ec5ec326 ea9f86e9 d3e61dea",
		"HW":  "4fddb5e1 58b36aaa eb9928ae d0436283 99f4a443 9150c9d7 db953aa9 229e0a91",
		"HS":  "83f2d211 277faa44 3c936963 3522d6c3 a2708ebc eb0d37ad 314ea743 b4059998",
		"KM":  "47f395eb 96fef65d 289b78c8 cf0a66fc 1b81460a f6d3a4f1 e98e8102 c4502a58",
		"LC":  "4f200b1b 5dd3d3b1 bd52a2f1 2db012f8 6d5fed24 1fa1b562 246778ad 8ebb75fd",
		"LUD": "b92a6b35 36b7b5d4 9c704a6a ce7d940d 8f0101db 115ee717 0450bd65 e2bf370f",
		"MUM": "fe257902 2a25866a 5d8b92ea c77d92d0 44a99882 0952a83c e72e1e63 04ac8b5f",
		"NW":  "4c25f667 811a951d dc660ea8 c9849df8 5fce706c 8dc56088 6e7a84bf 06bade4b",
		"SAD": "a9d813e0 a095f985 0cb35e39 d3f900fa 2978b51a ae15df2c 009a97f1 4d2f6348",
		"ST":  "a8860386 831da56c bcea1c1e 0111aa71 b3426033 2fabb7c4 8a608a95 40e9ab70",
	}
	e := newTestExecutor(t)
	benches := e.base.Catalog().BenchmarkNames()
	var specs []jobspec.Spec
	for _, bench := range benches {
		for _, policy := range policies {
			spec := jobspec.Periodic(bench, policy).WithWindowUs(3000).WithConstraintUs(10)
			specs = append(specs, spec.WithEstimator(jobspec.EstimatorOnline), spec)
		}
	}
	out, err := e.RunSpecs(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	differ := 0
	for i, bench := range benches {
		row := make([]string, len(policies))
		for j := range policies {
			at := 2 * (i*len(policies) + j)
			online, err := json.Marshal(out[at])
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := json.Marshal(out[at+1])
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(online)
			row[j] = hex.EncodeToString(sum[:4])
			if !bytes.Equal(online, oracle) {
				differ++
			}
		}
		if got := strings.Join(row, " "); got != golden[bench] {
			t.Errorf("%s: online payload digests\n got %q\nwant %q", bench, got, golden[bench])
		}
	}
	if differ == 0 {
		t.Error("every online payload equals its oracle payload")
	}
	t.Logf("online differs from oracle in %d of %d specs", differ, len(specs)/2)
}
