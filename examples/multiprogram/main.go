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

	runner, err := chimera.NewScenarioRunner(
		chimera.Microseconds(20000),
		chimera.Microseconds(30), // the §4.4 constraint: max context-switch time
		1,
	)
	if err != nil {
		log.Fatal(err)
	}

	// A pair is the two-process case of the N-program scenario.
	ctx, pair := context.Background(), []string{a, b}
	fcfs, _, err := runner.RunMulti(ctx, pair, nil, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s + %s on a shared GPU (20ms simulated, 30µs constraint):\n\n", a, b)
	fmt.Printf("%-10s  %8s  %8s  %14s  %13s  %9s\n",
		"policy", "ANTT", "STP", "ANTT-improve", "STP-improve", "requests")
	fmt.Printf("%-10s  %8.2f  %8.2f  %14s  %13s  %9d\n",
		"FCFS", fcfs.ANTT, fcfs.STP, "-", "-", fcfs.Requests)

	for _, policy := range chimera.StandardPolicies() {
		res, _, err := runner.RunMulti(ctx, pair, policy, false)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s  %8.2f  %8.2f  %13.1fx  %12.1f%%  %9d\n",
			res.Policy, res.ANTT, res.STP,
			fcfs.ANTT/res.ANTT, 100*(res.STP-fcfs.STP)/fcfs.STP, res.Requests)
	}
	fmt.Println("\nANTT = average normalized turnaround time (lower is better; the")
	fmt.Println("improvement column is FCFS/policy). STP = system throughput (max 2.0).")
}
