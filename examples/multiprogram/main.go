// Multiprogram: the §4.4 case study — two GPGPU benchmarks share the
// GPU. LUD launches many differently-sized kernels (several of them too
// small to fill the machine), so spatial sharing plus preemption beats
// the non-preemptive FCFS baseline dramatically on both turnaround time
// (ANTT) and system throughput (STP).
//
// Run with: go run ./examples/multiprogram [benchA] [benchB]
// e.g.:     go run ./examples/multiprogram LUD MUM
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"chimera"
)

func main() {
	a, b := "LUD", "MUM"
	if len(os.Args) > 2 {
		a, b = os.Args[1], os.Args[2]
	}

	// A pair is the two-process case of the N-program scenario, here over
	// 20ms at the §4.4 constraint: the maximum context-switch time.
	run := func(policy string) chimera.JobResult {
		spec := chimera.JobSpec{Kind: "pair", Bench: a, BenchB: b, Policy: policy, WindowUs: 20000, ConstraintUs: 30}
		job, err := chimera.RunJob(context.Background(), spec)
		if err != nil {
			log.Fatal(err)
		}
		return job
	}
	fcfs := run("fcfs").Pair
	fmt.Printf("%s + %s on a shared GPU (20ms simulated, 30µs constraint):\n\n", a, b)
	fmt.Printf("%-10s  %8s  %8s  %14s  %13s  %9s\n",
		"policy", "ANTT", "STP", "ANTT-improve", "STP-improve", "requests")
	fmt.Printf("%-10s  %8.2f  %8.2f  %14s  %13s  %9d\n",
		"FCFS", fcfs.ANTT, fcfs.STP, "-", "-", fcfs.Requests)

	for _, policy := range []string{"switch", "drain", "flush", "chimera"} {
		res := run(policy).Pair
		fmt.Printf("%-10s  %8.2f  %8.2f  %13.1fx  %12.1f%%  %9d\n",
			res.Policy, res.ANTT, res.STP,
			fcfs.ANTT/res.ANTT, 100*(res.STP-fcfs.STP)/fcfs.STP, res.Requests)
	}
	fmt.Println("\nANTT = average normalized turnaround time (lower is better; the")
	fmt.Println("improvement column is FCFS/policy). STP = system throughput (max 2.0).")
}
