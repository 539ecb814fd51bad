// Package predict implements online runtime prediction for kernels:
// the estimator layer that feeds Chimera's §3.2 cost models.
//
// The paper drives its cost models from hardware-measured per-thread-
// block statistics, warm-started from the Table-2 oracle (the engine's
// WarmStats seeding). Pai et al. observe that the quantities those
// models need — instructions per thread block and CPI — can instead be
// predicted *online* from the first few completed thread blocks of a
// kernel (structural runtime prediction): blocks of one kernel are
// structurally alike, so a small observed prefix pins down the mean.
//
// This package captures both shapes behind one interface:
//
//   - Estimator: the contract the engine (and, through the
//     gpu.KernelEstimate it fills, the internal/preempt cost model)
//     consumes. Observations flow in from the engine's per-TB
//     completion events; estimates flow out at every preemption
//     decision.
//   - Measured: the paper's estimator — a running mean over every
//     completed block, arithmetic-identical to gpu.KernelStats. Warm-
//     seeded by the engine it reproduces the Table-2 oracle bit for
//     bit (the metamorphic guarantee predict's tests pin down).
//   - Structural: the online predictor — freezes its estimate after
//     the first K completed blocks and reports a confidence that
//     gates when the cost model may leave its conservative fallback.
//
// Estimators are per-simulation state: construct a fresh one per run
// (they are deterministic functions of the observation stream, never of
// wall clock or global randomness).
package predict

import (
	"fmt"

	"chimera/internal/gpu"
	"chimera/internal/units"
)

// Estimator observes completed thread blocks and produces per-kernel
// runtime estimates. Implementations must be deterministic functions of
// the observation stream: same observations in, same estimates out.
// The engine feeds Observe from its per-TB completion events and calls
// Estimate at every preemption decision; the estimate is applied onto
// the gpu.KernelEstimate the internal/preempt cost models consume.
type Estimator interface {
	// Name is the canonical estimator name ("oracle", "online", …)
	// used in job specs and cache identities.
	Name() string
	// Observe folds one completed thread block of the labelled kernel
	// into the estimator's state.
	Observe(label string, insts int64, cycles units.Cycles)
	// Estimate reports the estimator's current view of the labelled
	// kernel. A kernel never observed yields the zero Estimate
	// (Observations == 0, Confidence == 0).
	Estimate(label string) Estimate
}

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
	// Confidence in [0, 1] reports how settled the prediction is:
	// Measured reports 1 after any observation; Structural ramps
	// linearly over its first K blocks.
	Confidence float64
}

// Apply copies the estimate onto the cost-model input, setting the Has*
// flags only when the estimator is confident enough for the cost models
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
	// (Table-2 oracle): the engine's built-in gpu.KernelStats path.
	NameOracle = "oracle"
	// NameOnline selects the structural online predictor.
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

// ForName constructs a fresh estimator instance for a canonical name.
// The empty string and NameOracle return nil: the oracle is the
// engine's built-in measured-statistics path, not a wrapper, so oracle
// runs execute exactly the code they always did (the bit-identical
// guarantee `make verify-identical` enforces).
func ForName(name string) (Estimator, error) {
	switch name {
	case "", NameOracle:
		return nil, nil
	case NameOnline:
		return NewStructural(DefaultK), nil
	default:
		return nil, fmt.Errorf("unknown estimator %q", name)
	}
}

// kernelObs is the per-label accumulator shared by both estimators.
// Sums are kept in the integer domain (exactly like gpu.KernelStats) so
// the derived means are bit-identical to the engine's measured path.
type kernelObs struct {
	n      int64
	insts  int64
	cycles units.Cycles
}

func (o *kernelObs) estimate(confidence float64) Estimate {
	if o == nil || o.n == 0 {
		return Estimate{}
	}
	est := Estimate{
		InstsPerTB:   float64(o.insts) / float64(o.n),
		CyclesPerTB:  float64(o.cycles) / float64(o.n),
		Observations: o.n,
		Confidence:   confidence,
	}
	if o.insts > 0 {
		est.CPI = float64(o.cycles) / float64(o.insts)
	}
	return est
}

// Measured is the paper's estimator as an explicit Estimator
// implementation: a running mean over every observed block, mirroring
// gpu.KernelStats arithmetic exactly. Fed the same observation stream
// as the engine's built-in path (warm seed plus every completion) it
// yields bit-identical estimates — the property the metamorphic test
// relies on. Confidence is 1 after the first observation.
type Measured struct {
	byLabel map[string]*kernelObs
}

// NewMeasured returns an empty measured estimator.
func NewMeasured() *Measured {
	return &Measured{byLabel: make(map[string]*kernelObs)}
}

// Name implements Estimator.
func (m *Measured) Name() string { return NameOracle }

// Observe implements Estimator.
func (m *Measured) Observe(label string, insts int64, cycles units.Cycles) {
	o := m.byLabel[label]
	if o == nil {
		o = &kernelObs{}
		m.byLabel[label] = o
	}
	o.n++
	o.insts += insts
	o.cycles += cycles
}

// Estimate implements Estimator.
func (m *Measured) Estimate(label string) Estimate {
	o := m.byLabel[label]
	if o == nil || o.n == 0 {
		return Estimate{}
	}
	return o.estimate(1)
}

// Structural is the online structural runtime predictor: it averages
// the first K completed thread blocks per kernel and then freezes.
// Blocks of one kernel share code structure, so the frozen prefix mean
// predicts the rest of the grid; freezing keeps one late pathological
// block from perturbing every later scheduling decision, and bounds the
// predictor's state. Confidence ramps linearly from 0 to 1 across the
// window (n/K), so Estimate.Apply's gate holds the cost models on their
// conservative fallbacks until enough of the window has been seen.
type Structural struct {
	// K is the per-kernel observation window (DefaultK if built through
	// NewStructural).
	K       int64
	byLabel map[string]*kernelObs
}

// NewStructural returns an online structural predictor with window k
// (values < 1 are clamped to 1).
func NewStructural(k int64) *Structural {
	if k < 1 {
		k = 1
	}
	return &Structural{K: k, byLabel: make(map[string]*kernelObs)}
}

// Name implements Estimator.
func (s *Structural) Name() string { return NameOnline }

// Observe implements Estimator; observations beyond the first K per
// label are ignored (the estimate is frozen).
func (s *Structural) Observe(label string, insts int64, cycles units.Cycles) {
	o := s.byLabel[label]
	if o == nil {
		o = &kernelObs{}
		s.byLabel[label] = o
	}
	if o.n >= s.K {
		return
	}
	o.n++
	o.insts += insts
	o.cycles += cycles
}

// Estimate implements Estimator.
func (s *Structural) Estimate(label string) Estimate {
	o := s.byLabel[label]
	if o == nil || o.n == 0 {
		return Estimate{}
	}
	return o.estimate(float64(o.n) / float64(s.K))
}
