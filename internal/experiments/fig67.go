package experiments

import (
	"context"

	"chimera/internal/jobspec"
	"chimera/internal/kernels"
	"chimera/internal/metrics"
	"chimera/internal/tablefmt"
	"chimera/internal/workloads"
)

// PeriodicSweep holds the §4.1 measurements shared by Figures 6 and 7:
// every benchmark against the periodic real-time task under every
// policy, at the 15 µs constraint.
type PeriodicSweep struct {
	Benchmarks []string
	Policies   []string
	// Results[bench][policy] in the orders above.
	Results [][]workloads.PeriodicResult
}

// PeriodicSweepSpecs enumerates the §4.1 grid as canonical job specs:
// every benchmark against every standard policy (benchmark-major),
// periodic kind, with the runner's simulation parameters spelled out
// in spec units. The
// specs are the serializable face of the sweep — hand them to any
// Executor (in-process, chimerad, replay) and the same grid runs under
// the same cache identities.
func PeriodicSweepSpecs(r *workloads.Runner) []jobspec.Spec {
	var specs []jobspec.Spec
	for _, bench := range kernels.Load().BenchmarkNames() {
		specs = append(specs, specGrid(specBase(jobspec.KindPeriodic, r), standardPolicies, []string{bench})...)
	}
	return specs
}

// RunPeriodicSweep executes (or reuses, via the job cache) the full
// §4.1 grid: the benchmark × policy spec set is enumerated up front by
// PeriodicSweepSpecs and fanned out over the runner's pool through the
// jobspec Executor, with results collected in grid order regardless of
// completion order. Every exhibit runs specs, so runs stay shared with
// every other exhibit on the same cache.
func RunPeriodicSweep(r *workloads.Runner) (*PeriodicSweep, error) {
	sweep := &PeriodicSweep{Benchmarks: kernels.Load().BenchmarkNames(), Policies: labels(standardPolicies)}
	results, err := workloads.NewExecutor(r).RunSpecs(context.Background(), PeriodicSweepSpecs(r))
	if err != nil {
		return nil, err
	}
	n := len(standardPolicies)
	sweep.Results = make([][]workloads.PeriodicResult, len(sweep.Benchmarks))
	for i := range sweep.Benchmarks {
		row := make([]workloads.PeriodicResult, n)
		for j := range row {
			row[j] = *results[i*n+j].Periodic
		}
		sweep.Results[i] = row
	}
	return sweep, nil
}

// Fig6 reproduces Figure 6: the percentage of preemption requests that
// violate the real-time task's deadline at a 15 µs constraint, per
// benchmark and technique. Paper averages: Switch 56.0 %, Drain 61.3 %,
// Flush 7.3 %, Chimera 0.2 %.
func Fig6(s Scale) (*tablefmt.Table, error) {
	r, err := s.periodicRunner(Constraint15)
	if err != nil {
		return nil, err
	}
	sweep, err := RunPeriodicSweep(r)
	if err != nil {
		return nil, err
	}
	return sweep.ViolationsTable(), nil
}

// ViolationsTable renders the Figure 6 view of the sweep.
func (s *PeriodicSweep) ViolationsTable() *tablefmt.Table {
	t := tablefmt.New("Figure 6: Deadline violations @15µs constraint", append([]string{"Benchmark"}, s.Policies...)...)
	sums := make([]float64, len(s.Policies))
	for i, bench := range s.Benchmarks {
		row := []string{bench}
		for j, res := range s.Results[i] {
			row = append(row, tablefmt.Pct(res.ViolationRate))
			sums[j] += res.ViolationRate
		}
		t.AddRow(row...)
	}
	avg := []string{"average"}
	for _, sum := range sums {
		avg = append(avg, tablefmt.Pct(sum/float64(len(s.Benchmarks))))
	}
	t.AddRow(avg...)
	t.Note = "paper averages: Switch 56.0%, Drain 61.3%, Flush 7.3%, Chimera 0.2%"
	return t
}

// Fig7 reproduces Figure 7: the benchmark's effective throughput
// overhead in the same scenario. Paper (geomean-style) averages: Switch
// 12.2 %, Drain 8.9 %, Flush 19.3 %, Chimera 10.1 %.
func Fig7(s Scale) (*tablefmt.Table, error) {
	r, err := s.periodicRunner(Constraint15)
	if err != nil {
		return nil, err
	}
	sweep, err := RunPeriodicSweep(r)
	if err != nil {
		return nil, err
	}
	return sweep.OverheadTable(), nil
}

// OverheadTable renders the Figure 7 view of the sweep.
func (s *PeriodicSweep) OverheadTable() *tablefmt.Table {
	t := tablefmt.New("Figure 7: Throughput overhead @15µs constraint", append([]string{"Benchmark"}, s.Policies...)...)
	cols := make([][]float64, len(s.Policies))
	for i, bench := range s.Benchmarks {
		row := []string{bench}
		for j, res := range s.Results[i] {
			row = append(row, tablefmt.Pct(res.Overhead))
			cols[j] = append(cols[j], res.Overhead)
		}
		t.AddRow(row...)
	}
	avg := []string{"mean"}
	for _, col := range cols {
		avg = append(avg, tablefmt.Pct(metrics.Mean(col)))
	}
	t.AddRow(avg...)
	t.Note = "effective throughput vs fair share; paper: Switch 12.2%, Drain 8.9%, Flush 19.3%, Chimera 10.1%"
	return t
}
