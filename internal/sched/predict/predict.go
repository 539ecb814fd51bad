// Package predict implements the per-kernel runtime estimates that feed
// Chimera's §3.2 cost models.
//
// The paper drives its cost models from hardware-measured per-thread-
// block statistics, warm-started from the Table-2 oracle (the engine's
// WarmStats seeding). Pai et al. observe that the quantities those
// models need — instructions per thread block and CPI — can instead be
// predicted *online* from the first few completed thread blocks of a
// kernel (structural runtime prediction): blocks of one kernel are
// structurally alike, so a small observed prefix pins down the mean.
//
// Both are one type, Running: a running mean over a kernel's completed
// thread blocks. With no window every completed block counts — the
// paper's measured statistics, the oracle. With a window of K blocks the
// sums freeze after the first K and confidence ramps as n/K — the online
// predictor. The engine keeps one Running per kernel label, feeds it
// every per-TB completion and applies its Estimate at every preemption
// decision. A Running is a deterministic function of its observation
// stream, never of wall clock or global randomness.
package predict

import (
	"fmt"

	"chimera/internal/gpu"
	"chimera/internal/units"
)

// Estimate is one kernel's predicted runtime statistics, in the units
// the §3.2 cost models consume.
type Estimate struct {
	// InstsPerTB is the predicted mean warp instructions per thread
	// block.
	InstsPerTB float64
	// CPI is the predicted mean cycles per warp instruction.
	CPI float64
	// CyclesPerTB is the predicted mean wall cycles per thread block.
	CyclesPerTB float64
	// Observations counts the completed blocks folded in (including
	// any synthetic warm-start seed).
	Observations int64
	// Confidence in [0, 1] reports how settled the prediction is: 1
	// after any observation with no window, n/K over a window of K.
	Confidence float64
}

// Apply copies the estimate onto the cost-model input, setting the Has*
// flags only when the estimate is confident enough for the cost models
// to leave their conservative §3.2 fallbacks (Confidence >= gate). The
// statically known switch timings on e are left untouched.
func (p Estimate) Apply(e *gpu.KernelEstimate, gate float64) {
	if p.Observations == 0 || p.Confidence < gate {
		return
	}
	e.AvgInstsPerTB, e.HasInsts = p.InstsPerTB, true
	e.AvgCPI, e.HasCPI = p.CPI, p.InstsPerTB > 0
	e.AvgCyclesPerTB, e.HasCycles = p.CyclesPerTB, true
}

// Estimator names accepted in job specs (jobspec.Spec.Estimator).
const (
	// NameOracle selects the paper's warm-started measured statistics
	// (Table-2 oracle): a running mean over every completed block.
	NameOracle = "oracle"
	// NameOnline selects the structural online predictor: a running
	// mean over the first DefaultK completed blocks.
	NameOnline = "online"
)

// DefaultK is the observation window of the online structural
// predictor: the number of completed thread blocks per kernel after
// which the estimate freezes.
const DefaultK = 8

// DefaultConfidenceGate is the confidence below which Estimate.Apply
// withholds the prediction, keeping the cost models on their
// conservative fallbacks (half the window observed).
const DefaultConfidenceGate = 0.5

// ForName maps a spec's canonical estimator name to its window: 0 for
// the empty string and NameOracle, DefaultK for NameOnline.
func ForName(name string) (window int64, err error) {
	switch name {
	case "", NameOracle:
		return 0, nil
	case NameOnline:
		return DefaultK, nil
	default:
		return 0, fmt.Errorf("unknown estimator %q", name)
	}
}

// Running is one kernel's running estimate. The cost models never read
// ground-truth KernelParams for quantities the paper measures at
// runtime: they read a Running, which starts empty and converges as
// thread blocks complete, and until then they fall back to conservative
// maxima (§3.2). Sums stay in the integer domain and are divided once
// per Estimate, so equal observation streams give bit-identical means.
// Window 0 averages every observed block; a window of K freezes the
// sums after K blocks, so one late pathological block cannot perturb
// every later scheduling decision.
type Running struct {
	// Window is the number of blocks after which the estimate freezes;
	// 0 means never.
	Window int64

	n      int64
	insts  int64
	cycles units.Cycles
}

// Observe folds one completed thread block into the estimate, unless
// the window is already full: its warp instructions and the cycles it
// ran (execution time only, excluding restore halts).
func (r *Running) Observe(insts int64, cycles units.Cycles) {
	if r.Window > 0 && r.n >= r.Window {
		return
	}
	r.n++
	r.insts += insts
	r.cycles += cycles
}

// Estimate reports the current means. A Running never observed yields
// the zero Estimate (Observations == 0, Confidence == 0).
func (r *Running) Estimate() Estimate {
	if r.n == 0 {
		return Estimate{}
	}
	est := Estimate{
		InstsPerTB:   float64(r.insts) / float64(r.n),
		CyclesPerTB:  float64(r.cycles) / float64(r.n),
		Observations: r.n,
		Confidence:   1,
	}
	if r.Window > 0 {
		est.Confidence = float64(r.n) / float64(r.Window)
	}
	if r.insts > 0 {
		est.CPI = float64(r.cycles) / float64(r.insts)
	}
	return est
}
