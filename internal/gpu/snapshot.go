package gpu

import "chimera/internal/units"

// SMID identifies a streaming multiprocessor.
type SMID int

// KernelID identifies a kernel instance (one launch) within a simulation.
type KernelID int

// TBSnapshot is the scheduler-visible state of one resident thread block
// at the moment a preemption decision is made. Everything here is
// observable by the real hardware/scheduler of the paper: executed
// instruction counters (§3.2) and the breach notification flag set by the
// instrumented store (§3.4).
type TBSnapshot struct {
	// Index is the thread block's index within its grid.
	Index int
	// Executed is the warp-instruction count of the block's current run.
	Executed int64
	// RunCycles is the wall-cycle count the block has spent executing so
	// far. Together with Executed it yields the block's own average CPI
	// (§3.2 measures both statistics per thread block).
	RunCycles units.Cycles
	// Breached reports that the block's notification store has fired:
	// the block is past its non-idempotent point and must not be flushed.
	Breached bool
}

// ObservedCPI returns the block's measured cycles per instruction so
// far; ok is false while the block has made too little progress for the
// ratio to be meaningful.
func (t TBSnapshot) ObservedCPI() (cpi float64, ok bool) {
	const minInsts = 32
	if t.Executed < minInsts || t.RunCycles == 0 {
		return 0, false
	}
	return float64(t.RunCycles) / float64(t.Executed), true
}

// SMSnapshot is the scheduler-visible state of one SM.
type SMSnapshot struct {
	SM SMID
	// TBs are the blocks currently resident (running or frozen mid-save).
	TBs []TBSnapshot
}

// KernelEstimate bundles everything the cost estimator (§3.2) may consult
// about a kernel: measured statistics with their availability flags, and
// statically known context-switch timings.
type KernelEstimate struct {
	// AvgInstsPerTB, AvgCPI and AvgCyclesPerTB are the measured
	// averages; the Has flags report whether the kernel's running
	// estimate is usable yet (predict.Estimate.Apply sets them). When
	// absent, the estimator substitutes the conservative maximum
	// (§3.2). AvgCyclesPerTB only feeds the cycle-based drain-estimator
	// ablation §3.2 argues against.
	AvgInstsPerTB  float64
	HasInsts       bool
	AvgCPI         float64
	HasCPI         bool
	AvgCyclesPerTB float64
	HasCycles      bool

	// SMIPC is the measured aggregate IPC of the kernel on one SM, used
	// for the context-switch overhead estimate.
	SMIPC  float64
	HasIPC bool

	// SMSwitchCycles is the statically known time to save one full SM's
	// context; TBSwitchCycles the per-thread-block share. Both derive
	// from the kernel's resource usage before launch (§2.4).
	SMSwitchCycles units.Cycles
	TBSwitchCycles units.Cycles

	// StrictIdempotent is the compiler's verdict on the whole kernel; it
	// gates flushing when the relaxed condition is disabled (Fig 9's
	// "strict" arm).
	StrictIdempotent bool
}
