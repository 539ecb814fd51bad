package experiments

import (
	"context"
	"fmt"

	"chimera/internal/jobspec"
	"chimera/internal/kernels"
	"chimera/internal/metrics"
	"chimera/internal/tablefmt"
	"chimera/internal/workloads"
)

// PairSweep holds the §4.4 case-study measurements shared by Figures 10
// and 11: LUD paired with each other benchmark, under FCFS and the four
// preemptive policies.
type PairSweep struct {
	Partners []string
	Policies []string
	// FCFS[i] is the baseline for pair (LUD, Partners[i]);
	// Results[i][j] the preemptive result under Policies[j].
	FCFS    []workloads.PairResult
	Results [][]workloads.PairResult
}

// RunPairSweep executes the LUD×partner grid: every (partner, policy)
// pair spec — the FCFS baseline included — is enumerated up front and
// fanned out over the runner's pool, then unpacked in grid order.
func RunPairSweep(r *workloads.Runner) (*PairSweep, error) {
	sweep := &PairSweep{Policies: labels(standardPolicies)}
	var pairs [][2]string
	for _, bench := range kernels.Load().BenchmarkNames() {
		if bench != "LUD" {
			sweep.Partners = append(sweep.Partners, bench)
			pairs = append(pairs, [2]string{"LUD", bench})
		}
	}

	policies := append([]string{jobspec.PolicyFCFS}, standardPolicies...)
	results, err := workloads.NewExecutor(r).RunSpecs(context.Background(), pairSpecs(r, pairs, policies))
	if err != nil {
		return nil, err
	}
	for i := range sweep.Partners {
		chunk := results[i*len(policies) : (i+1)*len(policies)]
		sweep.FCFS = append(sweep.FCFS, *chunk[0].Pair)
		row := make([]workloads.PairResult, 0, len(standardPolicies))
		for _, res := range chunk[1:] {
			row = append(row, *res.Pair)
		}
		sweep.Results = append(sweep.Results, row)
	}
	return sweep, nil
}

// pairSpecs enumerates every pair under every policy as pair specs at
// r's window, constraint and seed, pair-major (spec i is
// pairs[i/len(policies)] under policies[i%len(policies)]).
func pairSpecs(r *workloads.Runner, pairs [][2]string, policies []string) []jobspec.Spec {
	specs := make([]jobspec.Spec, 0, len(pairs)*len(policies))
	for _, pair := range pairs {
		for _, policy := range policies {
			spec := specBase(jobspec.KindPair, r)
			spec.Bench, spec.BenchB, spec.Policy = pair[0], pair[1], policy
			specs = append(specs, spec)
		}
	}
	return specs
}

// Fig10 reproduces Figure 10: ANTT improvement over non-preemptive FCFS
// when LUD runs with each other benchmark. Paper geomeans: Switch 20.9x,
// Drain 19.3x, Flush 23.6x, Chimera 25.4x.
func Fig10(s Scale) (*tablefmt.Table, error) {
	r, err := s.pairRunner(s.PairWindow)
	if err != nil {
		return nil, err
	}
	sweep, err := RunPairSweep(r)
	if err != nil {
		return nil, err
	}
	return sweep.ANTTTable()
}

// ANTTTable renders the Figure 10 view: FCFS ANTT divided by the
// policy's ANTT (higher is better).
func (s *PairSweep) ANTTTable() (*tablefmt.Table, error) {
	t := tablefmt.New("Figure 10: ANTT improvement over non-preemptive FCFS (LUD pairs)",
		append([]string{"Pair"}, s.Policies...)...)
	cols := make([][]float64, len(s.Policies))
	for i, partner := range s.Partners {
		row := []string{"LUD/" + partner}
		for j, res := range s.Results[i] {
			imp := s.FCFS[i].ANTT / res.ANTT
			cols[j] = append(cols[j], imp)
			row = append(row, tablefmt.Times(imp))
		}
		t.AddRow(row...)
	}
	geo := []string{"geomean"}
	for _, col := range cols {
		g, err := metrics.Geomean(col)
		if err != nil {
			return nil, err
		}
		geo = append(geo, tablefmt.Times(g))
	}
	t.AddRow(geo...)
	t.Note = "paper geomeans: Switch 20.9x, Drain 19.3x, Flush 23.6x, Chimera 25.4x"
	return t, nil
}

// Fig11 reproduces Figure 11: STP improvement over FCFS for the same
// pairs. Paper averages: Switch 16.5 %, Drain 36.6 %, Flush 31.4 %,
// Chimera 41.7 %.
func Fig11(s Scale) (*tablefmt.Table, error) {
	r, err := s.pairRunner(s.PairWindow)
	if err != nil {
		return nil, err
	}
	sweep, err := RunPairSweep(r)
	if err != nil {
		return nil, err
	}
	return sweep.STPTable(), nil
}

// STPTable renders the Figure 11 view: relative STP gain over FCFS.
func (s *PairSweep) STPTable() *tablefmt.Table {
	t := tablefmt.New("Figure 11: STP improvement over non-preemptive FCFS (LUD pairs)",
		append([]string{"Pair"}, s.Policies...)...)
	cols := make([][]float64, len(s.Policies))
	for i, partner := range s.Partners {
		row := []string{"LUD/" + partner}
		for j, res := range s.Results[i] {
			imp := (res.STP - s.FCFS[i].STP) / s.FCFS[i].STP
			cols[j] = append(cols[j], imp)
			row = append(row, tablefmt.Pct(imp))
		}
		t.AddRow(row...)
	}
	avg := []string{"mean"}
	for _, col := range cols {
		avg = append(avg, tablefmt.Pct(metrics.Mean(col)))
	}
	t.AddRow(avg...)
	t.Note = "paper: Switch 16.5%, Drain 36.6%, Flush 31.4%, Chimera 41.7%"
	return t
}

// AllPairs reproduces the §4.4 all-combinations summary: Chimera versus
// FCFS over every unordered pair of distinct benchmarks. The paper
// reports 5.5x ANTT and 12.2 % STP improvement on average.
func AllPairs(s Scale) (*tablefmt.Table, error) {
	r, err := s.pairRunner(s.AllPairsWindow)
	if err != nil {
		return nil, err
	}
	names := kernels.Load().BenchmarkNames()
	// Every unordered pair under FCFS and Chimera, as one spec batch.
	var pairs [][2]string
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			pairs = append(pairs, [2]string{names[i], names[j]})
		}
	}
	results, err := workloads.NewExecutor(r).RunSpecs(context.Background(),
		pairSpecs(r, pairs, []string{jobspec.PolicyFCFS, jobspec.PolicyChimera}))
	if err != nil {
		return nil, err
	}
	var anttImps, stpImps []float64
	for k := 0; k < len(results); k += 2 {
		fcfs, ch := results[k].Pair, results[k+1].Pair
		anttImps = append(anttImps, fcfs.ANTT/ch.ANTT)
		stpImps = append(stpImps, (ch.STP-fcfs.STP)/fcfs.STP)
	}
	geo, err := metrics.Geomean(anttImps)
	if err != nil {
		return nil, err
	}
	t := tablefmt.New("§4.4: Chimera vs FCFS over all benchmark combinations",
		"Metric", "Measured", "Paper")
	t.AddRow("pairs", fmt.Sprintf("%d", len(pairs)), "all combinations")
	t.AddRow("ANTT improvement (geomean)", tablefmt.Times(geo), "5.5x")
	t.AddRow("STP improvement (mean)", tablefmt.Pct(metrics.Mean(stpImps)), "12.2%")
	return t, nil
}
