package experiments

import (
	"chimera/internal/jobspec"
	"chimera/internal/kernels"
	"chimera/internal/tablefmt"
	"chimera/internal/workloads"
)

// Calibrated is a robustness check on the timing model: the hand-
// assigned per-kernel CPI values are replaced wholesale by measurements
// from the warp-level SM model (internal/smsim) and the Figure 6
// deadline-violation sweep is re-run. Block execution times shift by up
// to several times — but the headline structure (Chimera ≈ 0, flushing
// far below switch and drain) must survive, because it rests on context
// sizes, idempotence and block independence rather than on the CPI
// assumptions.
func Calibrated(s Scale) ([]*tablefmt.Table, error) {
	models := []struct {
		name string
		cat  *kernels.Catalog
	}{
		{"Table 2 CPIs", kernels.Load()},
		{"warp-model CPIs", kernels.LoadCalibrated()},
	}

	// One environment per timing model (the catalogs share benchmark
	// names); the model × policy × benchmark grid runs as one flat task
	// list.
	envs := make([]*workloads.Runner, len(models))
	specs := make([][]jobspec.Spec, len(models))
	for mi, m := range models {
		r, err := s.newRunnerWith(m.cat, s.PeriodicWindow/2, Constraint15, s.Seed)
		if err != nil {
			return nil, err
		}
		envs[mi] = r
		specs[mi] = specGrid(specBase(jobspec.KindPeriodic, r), standardPolicies, kernels.Load().BenchmarkNames())
	}
	results, err := s.runIn(envs, specs)
	if err != nil {
		return nil, err
	}

	t := tablefmt.New("Extension: Fig 6 under warp-level-calibrated CPIs",
		"Timing model", "Switch", "Drain", "Flush", "Chimera")
	for mi, m := range models {
		avgs := violationMeans(results[mi], len(standardPolicies))
		t.AddRow(m.name,
			tablefmt.Pct(avgs[0]), tablefmt.Pct(avgs[1]),
			tablefmt.Pct(avgs[2]), tablefmt.Pct(avgs[3]))
	}
	t.Note = "average deadline violations @15µs; the warp-model row re-derives every kernel's CPI from the SM pipeline model instead of the Table 2 drain times"
	return []*tablefmt.Table{t}, nil
}
