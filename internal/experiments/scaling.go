package experiments

import (
	"context"
	"fmt"

	"chimera/internal/jobspec"
	"chimera/internal/tablefmt"
	"chimera/internal/workloads"
)

// scalingSets grows the multiprogramming degree from the paper's 2 up
// to 4 concurrent processes, once around LUD (the size-bound,
// request-heavy application of §4.4) and once with uniformly saturating
// benchmarks.
var scalingSets = [][]string{
	{"LUD", "HS"},
	{"LUD", "HS", "SAD"},
	{"LUD", "HS", "SAD", "KM"},
	{"HS", "SAD"},
	{"HS", "SAD", "KM"},
	{"HS", "SAD", "KM", "BS"},
}

// Scaling is an extension beyond the paper: the two-process case study
// of §4.4 generalized to higher multiprogramming degrees. Nothing in
// Chimera is two-process-specific — the SM partitioning policy and
// Algorithm 1 are N-ary — so STP should keep growing with the degree
// under preemptive sharing while FCFS stays near 1, and the SM-busy
// fraction shows where the gains come from.
func Scaling(s Scale) ([]*tablefmt.Table, error) {
	r, err := s.pairRunner(s.PairWindow)
	if err != nil {
		return nil, err
	}
	// FCFS and Chimera for every set as multi specs, set-major. The
	// two-process set shares its runs with Figure 10's LUD+HS pair specs.
	var specs []jobspec.Spec
	for _, set := range scalingSets {
		for _, policy := range []string{jobspec.PolicyFCFS, jobspec.PolicyChimera} {
			spec := specBase(jobspec.KindMulti, r)
			spec.Bench, spec.Policy = workloads.MultiLabel(set), policy
			specs = append(specs, spec)
		}
	}
	results, err := workloads.NewExecutor(r).RunSpecs(context.Background(), specs)
	if err != nil {
		return nil, err
	}

	t := tablefmt.New("Extension: multiprogramming degree beyond 2 (30µs constraint)",
		"Benchmarks", "N", "FCFS STP", "Chimera STP", "FCFS busy", "Chimera busy", "ANTT gain", "Requests")
	for i, set := range scalingSets {
		fcfs, ch := results[2*i].Multi, results[2*i+1].Multi
		// Under FCFS a long kernel can fully starve its partners within
		// the window; the starvation floor then makes the raw ANTT
		// ratio astronomical, so the display saturates.
		gain := fcfs.ANTT / ch.ANTT
		gainCell := tablefmt.Times(gain)
		if gain > 1000 {
			gainCell = ">1000x"
		}
		t.AddRow(
			workloads.MultiLabel(set),
			fmt.Sprintf("%d", len(set)),
			tablefmt.F(fcfs.STP, 2),
			tablefmt.F(ch.STP, 2),
			tablefmt.Pct(fcfs.BusyFraction),
			tablefmt.Pct(ch.BusyFraction),
			gainCell,
			fmt.Sprintf("%d", ch.Requests),
		)
	}
	t.Note = "STP upper bound equals N; busy = fraction of SM-time with resident blocks; ANTT gains above 1000x mean FCFS starved a partner for the whole window"
	return []*tablefmt.Table{t}, nil
}
