package experiments

import (
	"context"
	"fmt"

	"chimera/internal/jobspec"
	"chimera/internal/kernels"
	"chimera/internal/metrics"
	"chimera/internal/preempt"
	"chimera/internal/tablefmt"
	"chimera/internal/units"
	"chimera/internal/workloads"
)

// Fig8Constraints are the preemption latency constraints swept in
// Figure 8.
var Fig8Constraints = []units.Cycles{
	units.FromMicroseconds(5),
	units.FromMicroseconds(10),
	units.FromMicroseconds(15),
	units.FromMicroseconds(20),
}

// Fig8 reproduces Figure 8: the impact of the preemption latency
// constraint on Chimera — (a) deadline violations, (b) throughput
// overhead, (c) the distribution of preemption techniques used. Paper:
// violations 2.00/1.08/0.24/0.00 %, overhead 16.5/12.2/10.0/9.0 %, with
// flushing growing as the constraint tightens and draining holding a
// ~19 % floor.
func Fig8(s Scale) (*tablefmt.Table, error) {
	benches := kernels.Load().BenchmarkNames()
	r, err := s.periodicRunner(Constraint15)
	if err != nil {
		return nil, err
	}
	// The full constraint × benchmark grid as one spec batch.
	var specs []jobspec.Spec
	for _, constraint := range Fig8Constraints {
		base := specBase(jobspec.KindPeriodic, r).WithConstraintUs(constraint.Microseconds())
		specs = append(specs, specGrid(base, []string{jobspec.PolicyChimera}, benches)...)
	}
	results, err := workloads.NewExecutor(r).RunSpecs(context.Background(), specs)
	if err != nil {
		return nil, err
	}

	t := tablefmt.New("Figure 8: Impact of preemption latency constraint (Chimera)",
		"Constraint", "Violations", "Overhead", "Switch", "Drain", "Flush")
	for ci, constraint := range Fig8Constraints {
		var violations, overheads []float64
		var mix [preempt.NumTechniques]int
		for _, sr := range results[ci*len(benches) : (ci+1)*len(benches)] {
			res := sr.Periodic
			violations = append(violations, res.ViolationRate)
			overheads = append(overheads, res.Overhead)
			for tech, n := range res.Mix {
				mix[tech] += n
			}
		}
		total := 0
		for _, n := range mix {
			total += n
		}
		share := func(tech preempt.Technique) string {
			if total == 0 {
				return "-"
			}
			return tablefmt.Pct(float64(mix[tech]) / float64(total))
		}
		t.AddRow(
			fmt.Sprintf("%.0fµs", constraint.Microseconds()),
			tablefmt.Pct(metrics.Mean(violations)),
			tablefmt.Pct(metrics.Mean(overheads)),
			share(preempt.Switch),
			share(preempt.Drain),
			share(preempt.Flush),
		)
	}
	t.Note = "paper: violations 2.00/1.08/0.24/0.00%, overhead 16.5/12.2/10.0/9.0%; flush share grows as the constraint tightens, drain holds ≈19%"
	return t, nil
}
