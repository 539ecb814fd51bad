package experiments

import (
	"fmt"

	"chimera/internal/gpu"
	"chimera/internal/jobspec"
	"chimera/internal/kernels"
	"chimera/internal/tablefmt"
	"chimera/internal/workloads"
)

// gpuSizes are the device widths swept by the GPUSize exhibit: half,
// the paper's Table 1 machine, and double. The real-time task always
// takes half the SMs, and per-SM bandwidth shares scale with the count.
var gpuSizes = []int{15, 30, 60}

// GPUSize is a robustness extension: the Figure 6 sweep re-run on
// differently sized devices. Per-SM bandwidth share moves inversely
// with the SM count (the DRAM is shared), so at 15 SMs context switches
// run twice as fast — several kernels drop under the 15 µs bound and
// the switch baseline improves — while at 60 SMs they take twice as
// long and it collapses. The structural claim under test: Chimera's
// near-zero violations are not an artifact of the 30-SM configuration.
func GPUSize(s Scale) ([]*tablefmt.Table, error) {
	benches := kernels.Load().BenchmarkNames()

	// One environment per device size; the size × policy × benchmark
	// grid runs as one flat task list.
	envs := make([]*workloads.Runner, len(gpuSizes))
	specs := make([][]jobspec.Spec, len(gpuSizes))
	for gi, numSMs := range gpuSizes {
		r, err := s.newRunner(s.PeriodicWindow/2, Constraint15, s.Seed)
		if err != nil {
			return nil, err
		}
		r.Config = gpu.DefaultConfig()
		r.Config.NumSMs = numSMs
		envs[gi] = r
		specs[gi] = specGrid(specBase(jobspec.KindPeriodic, r), standardPolicies, benches)
	}
	results, err := s.runIn(envs, specs)
	if err != nil {
		return nil, err
	}

	t := tablefmt.New("Extension: Fig 6 across device sizes (@15µs)",
		"SMs", "Switch", "Drain", "Flush", "Chimera", "TB-preempts")
	for gi, numSMs := range gpuSizes {
		avgs := violationMeans(results[gi], len(standardPolicies))
		tbPreempts := 0
		for _, res := range results[gi] {
			if res.Periodic.Policy == "Chimera" {
				for _, n := range res.Periodic.Mix {
					tbPreempts += n
				}
			}
		}
		t.AddRow(fmt.Sprintf("%d", numSMs),
			tablefmt.Pct(avgs[0]), tablefmt.Pct(avgs[1]),
			tablefmt.Pct(avgs[2]), tablefmt.Pct(avgs[3]),
			fmt.Sprintf("%d", tbPreempts))
	}
	t.Note = "average deadline violations; the task preempts half the SMs; per-SM bandwidth share (and so switch latency) scales with the device size"
	return []*tablefmt.Table{t}, nil
}
