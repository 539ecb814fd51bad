// Realtime: the §4.1 scenario — a periodic hard-deadline task (launched
// every 1ms, needing half the SMs for 200µs) preempts a GPGPU benchmark.
// The example compares the three single-technique baselines against
// Chimera on deadline violations and throughput overhead.
//
// Run with: go run ./examples/realtime [benchmark] [window-µs]
// e.g.:     go run ./examples/realtime FWT 20000
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"strconv"

	"chimera"
)

func main() {
	bench := "FWT"
	if len(os.Args) > 1 {
		bench = os.Args[1]
	}
	windowUs := 20000.0
	if len(os.Args) > 2 {
		v, err := strconv.ParseFloat(os.Args[2], 64)
		if err != nil {
			log.Fatalf("bad window: %v", err)
		}
		windowUs = v
	}

	fmt.Printf("Periodic real-time task vs %s over %.0fµs (15µs constraint):\n\n", bench, windowUs)
	fmt.Printf("%-10s  %10s  %9s  %22s\n", "policy", "violations", "overhead", "technique mix (blocks)")
	for _, policy := range []string{"switch", "drain", "flush", "chimera"} {
		// The spec's constraint and seed default to 15µs and 1.
		spec := chimera.JobSpec{Kind: "periodic", Bench: bench, Policy: policy, WindowUs: windowUs}
		job, err := chimera.RunJob(context.Background(), spec)
		if err != nil {
			log.Fatal(err)
		}
		res := job.Periodic
		fmt.Printf("%-10s  %9.1f%%  %8.1f%%  switch:%d drain:%d flush:%d\n",
			res.Policy, 100*res.ViolationRate, 100*res.Overhead,
			res.Mix[chimera.Switch], res.Mix[chimera.Drain], res.Mix[chimera.Flush])
	}
	fmt.Println("\nChimera meets the deadline by flushing idempotent blocks instantly,")
	fmt.Println("draining blocks near completion, and context-switching the rest when")
	fmt.Println("the constraint allows — per SM and per thread block (paper §3.3).")
}
