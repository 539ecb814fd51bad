package experiments

import (
	"context"

	"chimera/internal/engine"
	"chimera/internal/kernels"
	"chimera/internal/metrics"
	"chimera/internal/simjob"
	"chimera/internal/tablefmt"
	"chimera/internal/units"
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
	cat := kernels.Load()
	names := cat.BenchmarkNames()

	type variant struct {
		name       string
		policy     engine.Policy
		warm       bool
		constraint units.Cycles
		headroom   units.Cycles
	}
	variants := []variant{
		{"Chimera (cold start)", engine.ChimeraPolicy{}, false, Constraint15, 0},
		{"no conservative fallback (cold)", engine.ChimeraPolicy{OptimisticCold: true}, false, Constraint15, 0},
		{"Chimera", engine.ChimeraPolicy{}, true, Constraint15, 0},
		{"one technique per SM", engine.ChimeraPolicy{PerSMUniform: true}, true, Constraint15, 0},
		{"cycle-based drain estimator", engine.ChimeraPolicy{CycleBased: true}, true, Constraint15, 0},
		{"Chimera @5µs", engine.ChimeraPolicy{}, true, units.FromMicroseconds(5), 0},
		{"Chimera @5µs + 1µs headroom", engine.ChimeraPolicy{}, true, units.FromMicroseconds(5), units.FromMicroseconds(1)},
	}

	// Policy flags are not part of a spec, so the variants run as typed
	// Runner calls: one runner per variant on a shared pool, the variant
	// × benchmark grid as one flat task list.
	pool := s.pool()
	runners := make([]*workloads.Runner, len(variants))
	for vi, v := range variants {
		r, err := s.periodicRunner(v.constraint)
		if err != nil {
			return nil, err
		}
		r.Warm = v.warm
		r.Headroom = v.headroom
		runners[vi] = r.UsePool(pool)
	}
	results, err := simjob.Map(pool, len(variants)*len(names), func(i int) (workloads.PeriodicResult, error) {
		vi := i / len(names)
		res, _, err := runners[vi].RunPeriodic(context.Background(), names[i%len(names)], variants[vi].policy)
		return res, err
	})
	if err != nil {
		return nil, err
	}

	t := tablefmt.New("Ablations: Chimera design choices (periodic task)",
		"Variant", "Violations", "Overhead", "Forced req")
	for vi, v := range variants {
		var violations, overheads []float64
		forced := 0
		for _, res := range results[vi*len(names) : (vi+1)*len(names)] {
			violations = append(violations, res.ViolationRate)
			overheads = append(overheads, res.Overhead)
			forced += res.ForcedRequests
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
