// Package experiments regenerates every table and figure of the paper's
// evaluation (§4) from the simulator: one harness per exhibit, each
// returning printable tables. The EXPERIMENTS.md document records
// paper-reported versus measured values for all of them.
//
// Each exhibit enumerates its full set of simulation jobs up front as
// jobspec.Spec grids and runs them through workloads.Executor, as one
// flat task list over an internal/simjob pool (simjob.Map), assembling
// results in enumeration order: the rendered tables are byte-identical
// at any Parallelism. What a spec does not carry — device, catalog,
// contention β and cold start — is the environment Runner's (runIn).
// Exhibits share the process-wide result cache, so runs common to
// several figures (the §4.1 grid behind Figures 6, 7, 8 and 9 and the
// ablations; the stand-alone baselines behind every pair exhibit; the
// LUD+HS pair behind Figure 10 and the scaling table) are simulated once
// per process.
package experiments

import (
	"context"

	"chimera/internal/jobspec"
	"chimera/internal/kernels"
	"chimera/internal/metrics"
	"chimera/internal/simjob"
	"chimera/internal/units"
	"chimera/internal/workloads"
)

// Scale sets the simulated durations of the measurement runs and how the
// runs are scheduled. The paper simulates until one billion instructions
// per benchmark; the defaults here are scaled down to keep a full
// reproduction in minutes while leaving enough preemption requests per
// scenario for stable percentages. QuickScale is for tests.
type Scale struct {
	// PeriodicWindow is the simulated time of each §4.1 run (one
	// preemption request per millisecond).
	PeriodicWindow units.Cycles
	// PairWindow is the simulated time of each §4.4 pairwise run.
	PairWindow units.Cycles
	// AllPairsWindow is the (shorter) window for the 91-combination
	// sweep.
	AllPairsWindow units.Cycles
	// Seed drives all runs.
	Seed uint64
	// Parallelism bounds how many simulations run at once (0 =
	// GOMAXPROCS). Results are identical at any value; only wall-clock
	// changes.
	Parallelism int
	// Cache overrides the result cache (nil = the process-shared one).
	// Tests use a private cache to measure scheduling behaviour without
	// cross-test hits.
	Cache *simjob.Cache
}

// DefaultScale is the scale used for the recorded EXPERIMENTS.md
// results: 120 simulated milliseconds per periodic run (≈119 requests
// per benchmark, ≈1666 over the suite — several passes even over LC's
// 30 ms kernel sequence) and 40 ms per pair run (longer than MUM's and
// LC's longest kernels, so FCFS never fully starves a partner).
func DefaultScale() Scale {
	return Scale{
		PeriodicWindow: units.FromMicroseconds(120_000),
		PairWindow:     units.FromMicroseconds(40_000),
		AllPairsWindow: units.FromMicroseconds(40_000),
		Seed:           1,
	}
}

// QuickScale is a fast preset for tests and smoke runs.
func QuickScale() Scale {
	return Scale{
		PeriodicWindow: units.FromMicroseconds(6_000),
		PairWindow:     units.FromMicroseconds(6_000),
		AllPairsWindow: units.FromMicroseconds(3_000),
		Seed:           1,
	}
}

// Constraint15 is the headline 15 µs preemption latency constraint of
// §4.1; Constraint30 the 30 µs bound of the §4.4 case study (the maximum
// context-switch latency of the configuration).
var (
	Constraint15 = units.FromMicroseconds(15)
	Constraint30 = units.FromMicroseconds(30)
)

// pool builds the job pool exhibits schedule on.
func (s Scale) pool() *simjob.Pool {
	return simjob.NewPool(s.Parallelism, s.Cache)
}

// newRunner builds a workload runner on the scale's pool with an
// explicit window, constraint and seed (the general form used by the
// multi-runner exhibits: seeds, gpusize, calibrated, contention).
func (s Scale) newRunner(window, constraint units.Cycles, seed uint64) (*workloads.Runner, error) {
	return s.newRunnerWith(kernels.Load(), window, constraint, seed)
}

// newRunnerWith is newRunner over an explicit kernel catalog.
func (s Scale) newRunnerWith(cat *kernels.Catalog, window, constraint units.Cycles, seed uint64) (*workloads.Runner, error) {
	r, err := workloads.NewRunnerWith(cat, window, constraint, seed)
	if err != nil {
		return nil, err
	}
	return r.UsePool(s.pool()), nil
}

// periodicRunner builds the §4.1 runner for a given constraint.
func (s Scale) periodicRunner(constraint units.Cycles) (*workloads.Runner, error) {
	return s.newRunner(s.PeriodicWindow, constraint, s.Seed)
}

// pairRunner builds the §4.4 runner.
func (s Scale) pairRunner(window units.Cycles) (*workloads.Runner, error) {
	return s.newRunner(window, Constraint30, s.Seed)
}

// standardPolicies names the four §4 contenders as spec policies, in
// the paper's presentation order.
var standardPolicies = []string{jobspec.PolicySwitch, jobspec.PolicyDrain, jobspec.PolicyFlush, jobspec.PolicyChimera}

// labels returns the display labels of spec policy names ("Switch",
// "FCFS", …), as result tables print them.
func labels(policies []string) []string {
	out := make([]string, len(policies))
	for i, name := range policies {
		p, _ := jobspec.ParsePolicy(name) // the exhibits pass jobspec's own names
		out[i] = p.Name()
	}
	return out
}

// specBase is the spec template of the given kind carrying r's window,
// constraint, headroom and seed in spec units.
func specBase(kind string, r *workloads.Runner) jobspec.Spec {
	return jobspec.Spec{Kind: kind}.
		WithWindowUs(r.Window.Microseconds()).
		WithConstraintUs(r.Constraint.Microseconds()).
		WithHeadroomUs(r.Headroom.Microseconds()).
		WithSeed(r.Seed)
}

// specGrid fills base with every policy × benchmark, policy-major
// (spec i is policies[i/len(benches)] on benches[i%len(benches)]), each
// normalized to canonical wire form. Neighbouring tasks thus run
// different benchmarks, and so fetch different solo baselines instead
// of one waiting on the other's.
func specGrid(base jobspec.Spec, policies, benches []string) []jobspec.Spec {
	specs := make([]jobspec.Spec, 0, len(policies)*len(benches))
	for _, policy := range policies {
		for _, bench := range benches {
			spec := base
			spec.Bench, spec.Policy = bench, policy
			spec.Normalize()
			specs = append(specs, spec)
		}
	}
	return specs
}

// violationMeans averages each policy's deadline-violation rate over
// the benchmarks of one specGrid block of periodic results, in policy
// order.
func violationMeans(block []workloads.SpecResult, policies int) []float64 {
	n := len(block) / policies
	means := make([]float64, policies)
	for p := range means {
		var rates []float64
		for _, res := range block[p*n : (p+1)*n] {
			rates = append(rates, res.Periodic.ViolationRate)
		}
		means[p] = metrics.Mean(rates)
	}
	return means
}

// runIn runs specs[e] in environment envs[e] for every e — runners on
// the scale's cache that differ in device, catalog, contention or cold
// start — as one flat task list over a pool of the scale's parallelism,
// and returns the results indexed [environment][spec].
func (s Scale) runIn(envs []*workloads.Runner, specs [][]jobspec.Spec) ([][]workloads.SpecResult, error) {
	type task struct{ env, spec int }
	var tasks []task
	for e := range envs {
		for i := range specs[e] {
			tasks = append(tasks, task{e, i})
		}
	}
	flat, err := simjob.Map(s.pool(), len(tasks), func(i int) (workloads.SpecResult, error) {
		t := tasks[i]
		res, _, err := workloads.NewExecutor(envs[t.env]).Run(context.Background(), specs[t.env][t.spec])
		return res, err
	})
	if err != nil {
		return nil, err
	}
	out := make([][]workloads.SpecResult, len(envs))
	for e := range envs {
		out[e], flat = flat[:len(specs[e])], flat[len(specs[e]):]
	}
	return out, nil
}
