package workloads

import (
	"context"
	"fmt"
	"strings"

	"chimera/internal/engine"
	"chimera/internal/metrics"
	"chimera/internal/simjob"
)

// MultiResult is the outcome of running N benchmarks concurrently, the
// payload of multi specs — the §4.4 case study, whose two-process pairs
// are the N = 2 case (the paper's machinery never assumes two
// processes; the SM partitioning policy and Algorithm 1 are N-ary by
// construction).
type MultiResult struct {
	Benchmarks []string
	Policy     string
	ANTT       float64
	STP        float64
	// Requests is the number of preemption requests issued.
	Requests int
	// BusyFraction is the machine's SM-busy fraction over the run —
	// under non-preemptive FCFS, size-bound kernels leave most of it
	// idle.
	BusyFraction float64
}

// PairResult is the wire form of a two-process run, the payload of
// pair specs: absolute ANTT and STP (improvements over FCFS are
// computed by the experiment harness from two results).
type PairResult struct {
	A, B   string
	Policy string
	ANTT   float64
	STP    float64
	// Requests is the number of preemption requests the pair generated.
	Requests int
}

// multi runs the "+"-joined benchmarks concurrently under the given
// policy (engine.FCFS for the non-preemptive baseline) and
// computes N-program ANTT/STP against their stand-alone rates, memoized
// by job identity like every other scenario; executed reports whether
// this call ran the simulation.
func (r *Runner) multi(ctx context.Context, label string, policy engine.Policy) (MultiResult, bool, error) {
	return do(ctx, r, r.job(simjob.KindMulti, label, policy), func(ctx context.Context) (MultiResult, error) {
		benches := strings.Split(label, "+")
		singles := make([]float64, len(benches))
		for i, b := range benches {
			rate, _, err := r.soloRate(ctx, b)
			if err != nil {
				return MultiResult{}, err
			}
			singles[i] = rate
		}
		sim, err := r.simulate(ctx, simjob.KindMulti, benches, policy, nil)
		if err != nil {
			return MultiResult{}, err
		}

		// A process that never got the GPU inside the window (FCFS behind a
		// 20ms kernel) has measured rate zero; floor it at one instruction
		// per window so its normalized turnaround reflects the starvation
		// instead of failing the metric.
		progs := make([]metrics.ProgRate, len(benches))
		for i, b := range benches {
			u := sim.ProcessUseful(procName(b, i))
			if u < 1 {
				u = 1
			}
			progs[i] = metrics.ProgRate{Name: b, Single: singles[i], Multi: float64(u) / float64(r.Window)}
		}
		name := policy.Name()
		antt, err := metrics.ANTT(progs)
		if err != nil {
			return MultiResult{}, fmt.Errorf("workloads: %s under %s: %w", label, name, err)
		}
		stp, err := metrics.STP(progs)
		if err != nil {
			return MultiResult{}, err
		}
		return MultiResult{
			Benchmarks:   benches,
			Policy:       name,
			ANTT:         antt,
			STP:          stp,
			Requests:     len(sim.Requests()),
			BusyFraction: sim.SMBusyFraction(r.Window),
		}, nil
	})
}

// procName names process i of a multiprogrammed run; the index keeps a
// self-pair's two processes distinct.
func procName(bench string, i int) string {
	return fmt.Sprintf("%s#%d", bench, i)
}

// MultiLabel renders a benchmark set compactly, e.g. "LUD+HS+SAD".
func MultiLabel(benches []string) string {
	return strings.Join(benches, "+")
}
