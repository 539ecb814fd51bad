package experiments

import (
	"context"
	"reflect"
	"testing"

	"chimera/internal/jobspec"
	"chimera/internal/kernels"
	"chimera/internal/simjob"
	"chimera/internal/units"
	"chimera/internal/workloads"
)

// TestPeriodicSweepSpecIdentity pins the jobspec-refactor invariant the
// exhibits depend on: the spec enumeration behind Figures 6 and 7
// derives exactly the cache identities of direct Runner calls, so a run simulated by any jobspec entry point (chimerad,
// replay, another exhibit) is reused by the sweep and vice versa.
func TestPeriodicSweepSpecIdentity(t *testing.T) {
	s := QuickScale()
	s.PeriodicWindow = units.FromMicroseconds(400)
	s.Cache = simjob.NewCache()
	r, err := s.periodicRunner(Constraint15)
	if err != nil {
		t.Fatal(err)
	}

	benches := kernels.Load().BenchmarkNames()
	policies := workloads.StandardPolicies()
	specs := PeriodicSweepSpecs(r)
	if len(specs) != len(benches)*len(policies) {
		t.Fatalf("%d specs, want %d×%d", len(specs), len(benches), len(policies))
	}

	// Grid order: [bench][policy], with the runner's parameters spelled
	// out so the specs are self-contained.
	probe := specs[1] // benches[0] × Drain
	if probe.Kind != jobspec.KindPeriodic || probe.Bench != benches[0] || probe.Policy != jobspec.PolicyDrain {
		t.Fatalf("specs[1] = %+v, want periodic %s drain", probe, benches[0])
	}
	if probe.WindowUs != 400 || probe.ConstraintUs != 15 || probe.Seed != s.Seed {
		t.Fatalf("specs[1] parameters %+v do not mirror the runner", probe)
	}

	// Simulate two cells through the direct Runner path first, then run
	// the same cells through the executor: the spec path must be served
	// from the cache (executed = false) with the identical result.
	ctx := context.Background()
	ex := workloads.NewExecutor(r)
	for _, idx := range []int{0, len(policies) + 2} {
		spec := specs[idx]
		bench, policy := benches[idx/len(policies)], policies[idx%len(policies)]
		direct, _, err := r.RunPeriodic(ctx, bench, policy)
		if err != nil {
			t.Fatal(err)
		}
		res, executed, err := ex.Run(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if executed {
			t.Errorf("spec %s (%s %s) re-simulated a run the Runner path already cached",
				spec.Hash(), bench, policy.Name())
		}
		if res.Periodic == nil || !reflect.DeepEqual(*res.Periodic, direct) {
			t.Errorf("spec %s result diverged from the direct Runner result", spec.Hash())
		}
	}
}
