// Package simjob turns the evaluation's simulation runs into schedulable
// jobs: a Job is the hashable identity of one discrete-event simulation
// (scenario kind, benchmarks, policy, window, constraint, seed, device
// configuration, catalog), a Cache memoizes results per Job with
// singleflight semantics, and a Pool fans independent jobs out over a
// bounded set of workers. Each Cache keeps the one set of counters
// (Stats) for its own work and for the tasks of every Pool over it.
//
// The evaluation is embarrassingly parallel — hundreds of independent
// simulations per exhibit (benchmarks × policies × constraints × seeds)
// — and fully deterministic: every simulation owns its RNG through
// Options.Seed, so results are a pure function of the Job key. That is
// what makes both the memoization and the parallel execution safe:
// whichever worker computes a Job first, every consumer observes the
// same value, and tables assembled in enumeration order are
// byte-identical at any worker count.
package simjob

import (
	"chimera/internal/gpu"
	"chimera/internal/kernels"
	"chimera/internal/units"
)

// Kind names the scenario family a Job belongs to.
type Kind uint8

const (
	// KindSolo is a stand-alone run measuring a benchmark's solo
	// progress rate (the ANTT/STP normalizer).
	KindSolo Kind = iota
	// KindPeriodic is the §4.1 periodic real-time-task scenario.
	KindPeriodic
	// KindMulti is §4.4 multiprogramming: N processes sharing the
	// device, the paper's two-process pairs included.
	KindMulti
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindSolo:
		return "solo"
	case KindPeriodic:
		return "periodic"
	default:
		return "multi"
	}
}

// Job is the identity of one simulation run. It is a comparable value:
// two Jobs are the same simulation iff all fields are equal, and the
// simulation result is a pure function of the Job (the engine draws all
// randomness from Seed). Catalog identity is by pointer — the kernel
// catalogs are process-wide singletons (kernels.Load,
// kernels.LoadCalibrated).
type Job struct {
	// Kind is the scenario family.
	Kind Kind
	// Benchmarks names the participating benchmarks, "+"-joined in
	// process order (a single name for solo and periodic runs).
	Benchmarks string
	// Policy uniquely identifies the preemption policy configuration,
	// including ablation flags ("" for solo runs, "FCFS" for the
	// non-preemptive baseline).
	Policy string
	// Window is the simulated duration.
	Window units.Cycles
	// Constraint is the preemption latency bound.
	Constraint units.Cycles
	// Headroom is the planning headroom below the constraint.
	Headroom units.Cycles
	// Seed drives the engine's RNG.
	Seed uint64
	// Warm seeds kernel statistics at launch.
	Warm bool
	// Contention is the memory-bandwidth contention beta.
	Contention float64
	// Config is the device configuration (zero value = Table 1).
	Config gpu.Config
	// Catalog is the kernel catalog the benchmarks come from.
	Catalog *kernels.Catalog
	// Variant discriminates runs whose outcome depends on anything
	// beyond the simulation parameters above — e.g. an active fault
	// plan or watchdog configuration ("" for a clean run). Without it a
	// faulted execution would be cached under the same key as a clean
	// one and poison later lookups.
	Variant string
}
