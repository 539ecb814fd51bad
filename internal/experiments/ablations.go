package experiments

import (
	"slices"

	"chimera/internal/jobspec"
	"chimera/internal/kernels"
	"chimera/internal/metrics"
	"chimera/internal/tablefmt"
	"chimera/internal/workloads"
)

// Ablations quantifies the design choices DESIGN.md §5 calls out, by
// re-running the §4.1 scenario (15 µs constraint) with one mechanism
// removed at a time:
//
//   - conservative-max fallback → optimistic zero when statistics are
//     missing (runs cold, without warm statistics, where the fallback
//     actually fires);
//   - per-thread-block technique mixing → one technique per SM;
//   - instruction-count drain estimator → direct cycle averages (the
//     estimator §3.2 rejects).
func Ablations(s Scale) ([]*tablefmt.Table, error) {
	names := kernels.Load().BenchmarkNames()

	// Cold start is a property of the environment, so the two cold rows
	// run in a cold Runner and the rest in a warm one, as one flat task
	// list; policy, constraint and headroom are the spec's. The cold rows
	// come first, so the results concatenate in row order.
	const cold, warm = 0, 1
	envs := make([]*workloads.Runner, 2)
	for e := range envs {
		r, err := s.periodicRunner(Constraint15)
		if err != nil {
			return nil, err
		}
		r.Warm = e == warm
		envs[e] = r
	}
	base := specBase(jobspec.KindPeriodic, envs[0])
	variants := []struct {
		name   string
		env    int
		policy string
		base   jobspec.Spec
	}{
		{"Chimera (cold start)", cold, jobspec.PolicyChimera, base},
		{"no conservative fallback (cold)", cold, jobspec.PolicyChimeraOptimistic, base},
		{"Chimera", warm, jobspec.PolicyChimera, base},
		{"one technique per SM", warm, jobspec.PolicyChimeraPerSM, base},
		{"cycle-based drain estimator", warm, jobspec.PolicyChimeraCycleEst, base},
		{"Chimera @5µs", warm, jobspec.PolicyChimera, base.WithConstraintUs(5)},
		{"Chimera @5µs + 1µs headroom", warm, jobspec.PolicyChimera, base.WithConstraintUs(5).WithHeadroomUs(1)},
	}
	specs := make([][]jobspec.Spec, len(envs))
	for _, v := range variants {
		specs[v.env] = append(specs[v.env], specGrid(v.base, []string{v.policy}, names)...)
	}
	results, err := s.runIn(envs, specs)
	if err != nil {
		return nil, err
	}
	rows := slices.Concat(results...)

	t := tablefmt.New("Ablations: Chimera design choices (periodic task)",
		"Variant", "Violations", "Overhead", "Forced req")
	for vi, v := range variants {
		var violations, overheads []float64
		forced := 0
		for _, res := range rows[vi*len(names) : (vi+1)*len(names)] {
			violations = append(violations, res.Periodic.ViolationRate)
			overheads = append(overheads, res.Periodic.Overhead)
			forced += res.Periodic.ForcedRequests
		}
		t.AddRow(v.name,
			tablefmt.Pct(metrics.Mean(violations)),
			tablefmt.Pct(metrics.Mean(overheads)),
			tablefmt.F(float64(forced), 0),
		)
	}
	t.Note = "cold start = estimator statistics empty at first request; warm rows use steady-state statistics"
	return []*tablefmt.Table{t}, nil
}
