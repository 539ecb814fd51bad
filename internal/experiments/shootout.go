package experiments

import (
	"context"
	"fmt"

	"chimera/internal/jobspec"
	"chimera/internal/tablefmt"
	"chimera/internal/workloads"
)

// The policy shootout is the evaluation harness behind the SLO work
// (docs/scheduling.md): every preemption policy — the four §4
// contenders plus the deadline-aware EDF and SLO policies — over a
// representative benchmark subset at several latency constraints,
// reporting each policy's deadline-miss rate and tail latency side by
// side. It answers the question the per-figure exhibits do not: at a
// given constraint, which policy keeps the real-time task inside its
// deadline, and at what cost.

// ShootoutBenchmarks is the representative subset the shootout sweeps:
// short-kernel (BS, FWT, HS) and long-kernel (LC, MUM, SAD) extremes of
// the Table 2 suite, in catalog order.
var ShootoutBenchmarks = []string{"BS", "FWT", "HS", "LC", "MUM", "SAD"}

// ShootoutPolicies is every selectable preemption policy, baselines
// first, in the order the tables render.
var ShootoutPolicies = []string{
	jobspec.PolicySwitch,
	jobspec.PolicyDrain,
	jobspec.PolicyFlush,
	jobspec.PolicyChimera,
	jobspec.PolicyEDF,
	jobspec.PolicySLO,
}

// ShootoutConstraintsUs are the preemption-latency bounds swept (µs):
// tighter than the paper's headline bound, the headline bound, and the
// §4.4 relaxed bound.
var ShootoutConstraintsUs = []float64{10, 15, 30}

// PolicyShootout runs the full shootout: one table per constraint, rows
// per policy, with per-benchmark deadline-miss rates, the suite-wide
// miss rate, and the measured preemption-latency tail. Every
// constraint's benchmark × policy grid runs as one spec batch; the
// 15 µs leg derives the same cache identities as the Figure 6/7 sweep
// for the four standard policies, so those runs are shared rather than
// repeated. The exhibit is deterministic — two same-seed runs render
// byte-identical tables.
func PolicyShootout(s Scale) ([]*tablefmt.Table, error) {
	r, err := s.periodicRunner(Constraint15)
	if err != nil {
		return nil, err
	}
	var specs []jobspec.Spec
	for _, cUs := range ShootoutConstraintsUs {
		base := specBase(jobspec.KindPeriodic, r).WithConstraintUs(cUs)
		specs = append(specs, specGrid(base, ShootoutPolicies, ShootoutBenchmarks)...)
	}
	results, err := workloads.NewExecutor(r).RunSpecs(context.Background(), specs)
	if err != nil {
		return nil, err
	}
	leg := len(ShootoutBenchmarks) * len(ShootoutPolicies)
	tables := make([]*tablefmt.Table, len(ShootoutConstraintsUs))
	for k, cUs := range ShootoutConstraintsUs {
		tables[k] = shootoutTable(cUs, results[k*leg:(k+1)*leg])
	}
	return tables, nil
}

// shootoutTable renders one constraint's leg: results are in specGrid
// order (policy-major, benchmark-minor).
func shootoutTable(constraintUs float64, results []workloads.SpecResult) *tablefmt.Table {
	cols := append([]string{"Policy"}, ShootoutBenchmarks...)
	cols = append(cols, "Suite", "P99", "Killed")
	t := tablefmt.New(fmt.Sprintf("Policy shootout: deadline-miss rate @%gµs constraint", constraintUs), cols...)
	for j, policy := range ShootoutPolicies {
		row := []string{policy}
		var periods, violations float64
		ls := newLatencyStats("shootout/" + policy)
		for i := range ShootoutBenchmarks {
			res := results[j*len(ShootoutBenchmarks)+i].Periodic
			row = append(row, tablefmt.Pct(res.ViolationRate))
			periods += float64(res.Periods)
			violations += res.ViolationRate * float64(res.Periods)
			for _, o := range res.Outcomes {
				ls.add(o)
			}
		}
		suite := 0.0
		if periods > 0 {
			suite = violations / periods
		}
		p99 := "-"
		if ls.hist.Count() > 0 {
			p99 = tablefmt.Us(ls.hist.Quantile(0.99))
		}
		row = append(row, tablefmt.Pct(suite), p99, tablefmt.Pct(killRate(ls)))
		t.AddRow(row...)
	}
	t.Note = "per-benchmark and suite-wide fraction of real-time periods missing their deadline; P99/Killed over measured handover latencies of the subset"
	return t
}
