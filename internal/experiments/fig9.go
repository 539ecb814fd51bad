package experiments

import (
	"context"
	"sort"

	"chimera/internal/jobspec"
	"chimera/internal/kernels"
	"chimera/internal/metrics"
	"chimera/internal/tablefmt"
	"chimera/internal/workloads"
)

// Fig9 reproduces Figure 9: the effectiveness of relaxing the
// idempotence condition for SM flushing. The flushing policy runs the
// §4.1 workloads at the 15 µs constraint twice. Under "strict", kernel
// idempotence decides whether an SM can be flushed at all: a
// non-idempotent kernel cannot be preempted by flushing, so any request
// against it misses its deadline no matter the constraint (the paper
// notes strict violations are constraint-independent for exactly this
// reason). Under "relaxed", blocks before their breach point flush
// instantly and only breached blocks must be waited out. Per-workload
// violation percentages are reported along with the paper's sorted
// curves. Paper averages: 50.0 % strict versus 0.2 % relaxed.
func Fig9(s Scale) (*tablefmt.Table, error) {
	r, err := s.periodicRunner(Constraint15)
	if err != nil {
		return nil, err
	}
	names := kernels.Load().BenchmarkNames()
	// Both flushing arms over every benchmark, arm-major; the relaxed
	// arm is Figure 6's flush column.
	results, err := workloads.NewExecutor(r).RunSpecs(context.Background(),
		specGrid(specBase(jobspec.KindPeriodic, r), []string{jobspec.PolicyFlushStrict, jobspec.PolicyFlush}, names))
	if err != nil {
		return nil, err
	}
	var strict, relaxed []float64
	for i := range names {
		strict = append(strict, results[i].Periodic.ViolationRate)
		relaxed = append(relaxed, results[len(names)+i].Periodic.ViolationRate)
	}

	t := tablefmt.New("Figure 9: Strict vs relaxed idempotence in SM flushing @15µs",
		"Benchmark", "Strict", "Relaxed")
	for i, bench := range names {
		t.AddRow(bench, tablefmt.Pct(strict[i]), tablefmt.Pct(relaxed[i]))
	}
	t.AddRow("average", tablefmt.Pct(metrics.Mean(strict)), tablefmt.Pct(metrics.Mean(relaxed)))

	// The paper plots the workloads sorted by violation rate; append the
	// sorted curves so the figure's shape is directly comparable.
	sc := append([]float64(nil), strict...)
	rc := append([]float64(nil), relaxed...)
	sort.Float64s(sc)
	sort.Float64s(rc)
	curve := func(xs []float64) string {
		out := ""
		for i, x := range xs {
			if i > 0 {
				out += " "
			}
			out += tablefmt.F(x*100, 0)
		}
		return out
	}
	t.Note = "paper averages: strict 50.0%, relaxed 0.2% | sorted strict curve [" +
		curve(sc) + "] relaxed curve [" + curve(rc) + "] (%)"
	return t, nil
}
