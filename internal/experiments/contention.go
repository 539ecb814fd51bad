package experiments

import (
	"chimera/internal/jobspec"
	"chimera/internal/tablefmt"
	"chimera/internal/workloads"
)

// contentionBenchmarks spans the memory-intensity range of the suite:
// a compute-dense kernel (BS), a streaming copy (KM), a constant-memory
// compute loop (CP) and a mid-range one (SAD).
var contentionBenchmarks = []string{"BS", "KM", "CP", "SAD"}

// Contention is an extension beyond the paper: §4 notes that halting an
// SM for the estimated switch time is "rather optimistic" because "the
// memory bandwidth consumed by context switching will affect other SMs
// to slow down in reality". This experiment quantifies that omission by
// re-running the §4.1 scenario with the bandwidth-contention model
// enabled (beta = 1: running kernels fully feel the stolen bandwidth
// share) and comparing throughput overheads under the context-switch
// baseline and under Chimera.
func Contention(s Scale) ([]*tablefmt.Table, error) {
	policies := []string{jobspec.PolicySwitch, jobspec.PolicyChimera}
	betas := []float64{0, 1}

	// One environment per beta; the beta × policy × benchmark grid runs
	// as one flat task list.
	envs := make([]*workloads.Runner, len(betas))
	specs := make([][]jobspec.Spec, len(betas))
	for bi, beta := range betas {
		r, err := s.periodicRunner(Constraint15)
		if err != nil {
			return nil, err
		}
		r.Contention = beta
		envs[bi] = r
		specs[bi] = specGrid(specBase(jobspec.KindPeriodic, r), policies, contentionBenchmarks)
	}
	results, err := s.runIn(envs, specs)
	if err != nil {
		return nil, err
	}

	t := tablefmt.New("Extension: memory-bandwidth contention from context traffic (@15µs)",
		"Benchmark", "Switch β=0", "Switch β=1", "Chimera β=0", "Chimera β=1")
	for i, bench := range contentionBenchmarks {
		row := []string{bench}
		for j := range policies {
			for k := range betas {
				row = append(row, tablefmt.Pct(results[k][j*len(contentionBenchmarks)+i].Periodic.Overhead))
			}
		}
		t.AddRow(row...)
	}
	t.Note = "β=0 reproduces the paper's methodology (no contention); β=1 charges each context stream one SM's bandwidth share to all running blocks"
	return []*tablefmt.Table{t}, nil
}
