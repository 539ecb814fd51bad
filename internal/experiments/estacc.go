package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"

	"chimera/internal/jobspec"
	"chimera/internal/kernels"
	"chimera/internal/tablefmt"
	"chimera/internal/workloads"
)

// EstimationAccuracy validates §3.2's cost estimators against the
// simulator's measured outcomes: for every completed preemption request
// in the §4.1 sweep, the selected plans' estimated preemption latency is
// compared with the measured handover latency. The paper reports that
// Chimera's rare deadline misses stem from drain misestimation "in the
// range of few hundred cycles (< 1µs)" — this table shows where this
// reproduction's estimator errors sit, per policy. The samples are the
// per-request Outcomes every cached periodic result carries.
func EstimationAccuracy(s Scale) ([]*tablefmt.Table, error) {
	// A shorter window suffices: each request contributes a sample.
	r, err := s.newRunner(s.PeriodicWindow/4, Constraint15, s.Seed)
	if err != nil {
		return nil, err
	}
	benches := kernels.Load().BenchmarkNames()
	results, err := workloads.NewExecutor(r).RunSpecs(context.Background(),
		specGrid(specBase(jobspec.KindPeriodic, r), standardPolicies, benches))
	if err != nil {
		return nil, err
	}

	t := tablefmt.New("Extension: estimated vs measured preemption latency (@15µs)",
		"Policy", "Requests", "MeanErr", "P95Err", "MaxErr", "Overest%")
	for pi, label := range labels(standardPolicies) {
		var errsUs []float64
		over := 0
		for _, res := range results[pi*len(benches) : (pi+1)*len(benches)] {
			for _, o := range res.Periodic.Outcomes {
				// Skip incomplete requests and ones whose plan carried a
				// conservative-max estimate (a breached block under a
				// uniform flush plan has no finite latency estimate).
				if !o.Completed || o.EstLatencyUs == 0 {
					continue
				}
				errsUs = append(errsUs, math.Abs(o.EstLatencyUs-o.LatencyUs))
				if o.EstLatencyUs >= o.LatencyUs {
					over++
				}
			}
		}
		if len(errsUs) == 0 {
			t.AddRow(label, "0", "-", "-", "-", "-")
			continue
		}
		sort.Float64s(errsUs)
		mean := 0.0
		for _, e := range errsUs {
			mean += e
		}
		mean /= float64(len(errsUs))
		p95 := errsUs[len(errsUs)*95/100]
		max := errsUs[len(errsUs)-1]
		t.AddRow(
			label,
			fmt.Sprintf("%d", len(errsUs)),
			tablefmt.Us(mean),
			tablefmt.Us(p95),
			tablefmt.Us(max),
			tablefmt.Pct(float64(over)/float64(len(errsUs))),
		)
	}
	t.Note = "error = |estimated − measured| per completed request; Overest% = share of requests where the estimate was conservative (≥ actual); the paper attributes Chimera's residual misses to sub-µs drain misestimation"
	return []*tablefmt.Table{t}, nil
}
