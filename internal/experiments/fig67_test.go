package experiments

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"chimera/internal/jobspec"
	"chimera/internal/kernels"
	"chimera/internal/simjob"
	"chimera/internal/units"
	"chimera/internal/workloads"
)

// TestPeriodicSweepSpecIdentity pins the jobspec invariant the
// exhibits depend on: the spec enumeration behind Figures 6 and 7
// derives exactly the cache identities of specs built by hand, so a run
// simulated by any jobspec entry point (chimerad, replay, another
// exhibit) is reused by the sweep and vice versa.
func TestPeriodicSweepSpecIdentity(t *testing.T) {
	s := QuickScale()
	s.PeriodicWindow = units.FromMicroseconds(400)
	s.Cache = simjob.NewCache()
	r, err := s.periodicRunner(Constraint15)
	if err != nil {
		t.Fatal(err)
	}

	benches := kernels.Load().BenchmarkNames()
	policies := standardPolicies
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

	// Simulate two cells from hand-built specs first, then run the same
	// cells from the sweep's enumeration: they must be served from the
	// cache (executed = false) with the identical result.
	ctx := context.Background()
	ex := workloads.NewExecutor(r)
	for _, idx := range []int{0, len(policies) + 2} {
		spec := specs[idx]
		bench, policy := benches[idx/len(policies)], policies[idx%len(policies)]
		first, _, err := ex.Run(ctx, jobspec.Periodic(bench, policy).WithWindowUs(400).WithSeed(s.Seed))
		if err != nil {
			t.Fatal(err)
		}
		res, executed, err := ex.Run(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if executed {
			t.Errorf("spec %s (%s %s) re-simulated a run a hand-built spec already cached",
				spec.Hash(), bench, policy)
		}
		if !reflect.DeepEqual(res, first) {
			t.Errorf("spec %s result diverged from the hand-built spec's", spec.Hash())
		}
	}
}

// exhibitJobs runs one exhibit at a 400 µs scale on a private cache and
// returns every simjob.Job it executed, as the cache's exec hook sees
// them.
func exhibitJobs(t *testing.T, name string) map[simjob.Job]bool {
	t.Helper()
	s := QuickScale()
	s.PeriodicWindow, s.PairWindow = units.FromMicroseconds(400), units.FromMicroseconds(400)
	s.Cache = simjob.NewCache()
	var mu sync.Mutex
	jobs := map[simjob.Job]bool{}
	s.Cache.SetExecHook(func(j simjob.Job) {
		mu.Lock()
		jobs[j] = true
		mu.Unlock()
	})
	if _, err := Run(name, s); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return jobs
}

// TestExhibitsShareRuns pins the runs the exhibits ported to specs
// share with the figures they stand beside. The quick tables stay
// byte-identical when two exhibits stop sharing a run; only the
// simulated-job count would show it.
func TestExhibitsShareRuns(t *testing.T) {
	fig6, fig8, fig9, fig10 := exhibitJobs(t, "fig6"), exhibitJobs(t, "fig8"), exhibitJobs(t, "fig9"), exhibitJobs(t, "fig10")
	ablation, scaling := exhibitJobs(t, "ablation"), exhibitJobs(t, "scaling")
	benches := len(kernels.Load().BenchmarkNames())

	where := func(set map[simjob.Job]bool, keep func(simjob.Job) bool) []simjob.Job {
		var out []simjob.Job
		for j := range set {
			if keep(j) {
				out = append(out, j)
			}
		}
		return out
	}
	periodic := func(policy string, constraintUs float64) func(simjob.Job) bool {
		p, err := jobspec.ParsePolicy(policy)
		if err != nil {
			t.Fatal(err)
		}
		return func(j simjob.Job) bool {
			return j.Kind == simjob.KindPeriodic && j.Policy == jobspec.PolicyKey(p) &&
				j.Constraint == units.FromMicroseconds(constraintUs) && j.Headroom == 0 && j.Warm
		}
	}
	shared := []struct {
		what string
		jobs []simjob.Job
		in   map[simjob.Job]bool
		want int
	}{
		{"fig6's chimera column in ablation's warm Chimera row", where(fig6, periodic(jobspec.PolicyChimera, 15)), ablation, benches},
		{"fig8's 5µs row in ablation's @5µs row", where(fig8, periodic(jobspec.PolicyChimera, 5)), ablation, benches},
		{"fig6's flush column in fig9's relaxed arm", where(fig6, periodic(jobspec.PolicyFlush, 15)), fig9, benches},
		{"scaling's LUD+HS multi runs in fig10's LUD+HS pair runs", where(scaling, func(j simjob.Job) bool {
			return j.Benchmarks == "LUD+HS"
		}), fig10, 2},
	}
	for _, c := range shared {
		if len(c.jobs) != c.want {
			t.Errorf("%s: found %d jobs, want %d", c.what, len(c.jobs), c.want)
		}
		for _, j := range c.jobs {
			if !c.in[j] {
				t.Errorf("%s: %+v is not shared", c.what, j)
			}
		}
	}

	// Every ablation row is a run of its own, and the two cold rows key
	// apart from every warm exhibit run.
	if got := len(where(ablation, func(j simjob.Job) bool { return j.Kind == simjob.KindPeriodic })); got != 7*benches {
		t.Errorf("ablation ran %d distinct periodic jobs, want %d", got, 7*benches)
	}
	cold := where(ablation, func(j simjob.Job) bool { return j.Kind == simjob.KindPeriodic && !j.Warm })
	if len(cold) != 2*benches {
		t.Errorf("ablation ran %d cold periodic jobs, want %d", len(cold), 2*benches)
	}
	for _, j := range cold {
		if fig6[j] || fig8[j] || fig9[j] {
			t.Errorf("cold-start job %+v keys as a warm exhibit's", j)
		}
	}
}
