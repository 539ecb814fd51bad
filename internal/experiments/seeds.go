package experiments

import (
	"context"
	"fmt"

	"chimera/internal/jobspec"
	"chimera/internal/kernels"
	"chimera/internal/tablefmt"
	"chimera/internal/workloads"
)

// seedCount is how many independent seeds the Seeds exhibit sweeps.
const seedCount = 5

// Seeds is a statistical-robustness extension: the Figure 6 averages
// recomputed under independent RNG seeds (per-block CPI draws are the
// only stochastic input). The paper reports single-run numbers; this
// table shows how much the averages move run to run — and that
// Chimera's zero-violation result is not a lucky draw.
func Seeds(s Scale) ([]*tablefmt.Table, error) {
	benches := kernels.Load().BenchmarkNames()
	r, err := s.newRunner(s.PeriodicWindow/2, Constraint15, s.Seed)
	if err != nil {
		return nil, err
	}
	// The full seed × policy × benchmark grid as one spec batch.
	var specs []jobspec.Spec
	for i := 0; i < seedCount; i++ {
		base := specBase(jobspec.KindPeriodic, r).WithSeed(s.Seed + uint64(i))
		specs = append(specs, specGrid(base, standardPolicies, benches)...)
	}
	results, err := workloads.NewExecutor(r).RunSpecs(context.Background(), specs)
	if err != nil {
		return nil, err
	}

	t := tablefmt.New("Extension: Fig 6 averages across RNG seeds (@15µs)",
		"Seed", "Switch", "Drain", "Flush", "Chimera")
	perPolicy := make([][]float64, len(standardPolicies))
	block := len(benches) * len(standardPolicies)
	for i := 0; i < seedCount; i++ {
		row := []string{fmt.Sprintf("%d", s.Seed+uint64(i))}
		for j, avg := range violationMeans(results[i*block:(i+1)*block], len(standardPolicies)) {
			perPolicy[j] = append(perPolicy[j], avg)
			row = append(row, tablefmt.Pct(avg))
		}
		t.AddRow(row...)
	}

	min := []string{"min"}
	max := []string{"max"}
	for _, vals := range perPolicy {
		lo, hi := vals[0], vals[0]
		for _, v := range vals[1:] {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		min = append(min, tablefmt.Pct(lo))
		max = append(max, tablefmt.Pct(hi))
	}
	t.AddRow(min...)
	t.AddRow(max...)
	t.Note = "each row is one independent RNG seed; the paper's single-run averages are Switch 56.0%, Drain 61.3%, Flush 7.3%, Chimera 0.2%"
	return []*tablefmt.Table{t}, nil
}
