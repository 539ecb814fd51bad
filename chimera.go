// Package chimera is a library reproduction of "Chimera: Collaborative
// Preemption for Multitasking on a Shared GPU" (Park, Park & Mahlke,
// ASPLOS 2015).
//
// Chimera serves preemption requests on a shared GPU by combining three
// techniques with different latency/throughput trade-offs — context
// switching, SM draining, and the paper's novel idempotence-based SM
// flushing — choosing per streaming multiprocessor and per thread block
// so that a requested preemption latency is met at minimal throughput
// cost.
//
// The package is a facade over the implementation:
//
//   - the decision core (cost estimation §3.2 and selection Algorithm 1
//     §3.3) via Select, SelectPerSMUniform, PlanSM and EstimateCosts;
//   - the compiler-side idempotence machinery (§2.3, §3.4) via
//     AnalyzeKernel and InstrumentKernel over the kernel IR;
//   - the discrete-event GPU multitasking simulator via NewSimulation;
//   - the 27-kernel, 14-benchmark workload catalog of Table 2 via
//     Catalog;
//   - the evaluation harnesses regenerating every table and figure of §4
//     via RunExperiment.
//
// See examples/ for runnable entry points and DESIGN.md for the system
// inventory.
package chimera

import (
	"io"

	"chimera/internal/core"
	"chimera/internal/engine"
	"chimera/internal/funcsim"
	"chimera/internal/gpu"
	"chimera/internal/kernelir"
	"chimera/internal/kernels"
	"chimera/internal/preempt"
	"chimera/internal/smsim"
	"chimera/internal/trace"
	"chimera/internal/units"
)

// Device and kernel model ------------------------------------------------

// Config is the GPU hardware configuration (Table 1 by default).
type Config = gpu.Config

// DefaultConfig returns the paper's Table 1 configuration: 30 SMs at
// 1400 MHz with 177.4 GB/s of DRAM bandwidth.
func DefaultConfig() Config { return gpu.DefaultConfig() }

// KernelParams describes a kernel to the scheduler: context size,
// occupancy, grid, timing model and idempotence properties.
type KernelParams = gpu.KernelParams

// KernelEstimate is the estimator-visible view of a kernel.
type KernelEstimate = gpu.KernelEstimate

// SMSnapshot and TBSnapshot are the scheduler-visible states of an SM
// and of one resident thread block at decision time.
type (
	SMSnapshot = gpu.SMSnapshot
	TBSnapshot = gpu.TBSnapshot
)

// SMID identifies a streaming multiprocessor.
type SMID = gpu.SMID

// Cycles is simulation time in core clock cycles (1400 MHz).
type Cycles = units.Cycles

// Microseconds converts a duration in µs to Cycles.
func Microseconds(us float64) Cycles { return units.FromMicroseconds(us) }

// Preemption techniques ---------------------------------------------------

// Technique is one of the three preemption mechanisms.
type Technique = preempt.Technique

// The three techniques of §2: context switching, draining, and the
// paper's SM flushing.
const (
	Switch = preempt.Switch
	Drain  = preempt.Drain
	Flush  = preempt.Flush
)

// Cost is a per-(thread block, technique) estimate: latency in cycles,
// overhead in warp instructions (§3.2).
type Cost = preempt.Cost

// EstimateOptions tunes the estimators (relaxed idempotence and the
// ablation switches of DESIGN.md §5).
type EstimateOptions = preempt.Options

// SMPlan assigns a technique to every thread block of one SM.
type SMPlan = preempt.SMPlan

// TBPlan is one thread block's technique assignment within an SMPlan.
type TBPlan = preempt.TBPlan

// EstimateCosts prices all three techniques for one thread block.
func EstimateCosts(tb TBSnapshot, est KernelEstimate, residentTBs int, maxExecuted int64, opts EstimateOptions) [preempt.NumTechniques]Cost {
	return preempt.EstimateAll(tb, est, residentTBs, maxExecuted, opts)
}

// The decision core (the paper's contribution) ----------------------------

// Request is a preemption request: latency bound, number of SMs, and
// estimator options.
type Request = core.Request

// Input is the scheduler-visible state Algorithm 1 consults.
type Input = core.Input

// Selection is Algorithm 1's outcome: one plan per selected SM.
type Selection = core.Selection

// Select runs Algorithm 1 (§3.3): choose which SMs to preempt and how to
// preempt each thread block, minimizing estimated throughput overhead
// under the latency constraint.
func Select(req Request, in Input) Selection { return core.Select(req, in) }

// SelectPerSMUniform is the ablation variant restricted to one technique
// per SM.
func SelectPerSMUniform(req Request, in Input) Selection {
	return core.SelectPerSMUniform(req, in)
}

// PlanSM runs the per-SM half of Algorithm 1 (lines 2-17) for one SM.
func PlanSM(sm SMSnapshot, est KernelEstimate, constraintCycles float64, opts EstimateOptions) SMPlan {
	return core.PlanSM(sm, est, constraintCycles, opts)
}

// Idempotence analysis (§2.3, §3.4) ---------------------------------------

// KernelProgram is a kernel body in the miniature SIMT IR.
type KernelProgram = kernelir.Program

// KernelBuilder assembles KernelPrograms fluently.
type KernelBuilder = kernelir.Builder

// NewKernelBuilder starts a kernel program with the given name.
func NewKernelBuilder(name string) *KernelBuilder { return kernelir.NewBuilder(name) }

// AnalysisResult reports a kernel's strict idempotence and the dynamic
// position of its first idempotence breach.
type AnalysisResult = kernelir.Result

// AnalyzeKernel runs the idempotence analysis over a kernel program.
func AnalyzeKernel(p *KernelProgram) (AnalysisResult, error) { return kernelir.Analyze(p) }

// Instrumentation is the result of the §3.4 compiler rewrite.
type Instrumentation = kernelir.Instrumentation

// InstrumentKernel inserts breach-notification stores in front of every
// potentially breaching instruction (§3.4).
func InstrumentKernel(p *KernelProgram) Instrumentation { return kernelir.Instrument(p) }

// Simulation ---------------------------------------------------------------

// Simulation is the discrete-event GPU multitasking simulator.
type Simulation = engine.Simulation

// SimOptions configures a simulation run.
type SimOptions = engine.Options

// Policy decides how preemption requests are executed.
type Policy = engine.Policy

// ChimeraPolicy is Algorithm 1 as a simulation policy; FixedPolicy
// applies one technique uniformly (the §4 baselines); FCFS runs kernels
// one at a time without preemption (the §4.4 baseline).
type (
	ChimeraPolicy = engine.ChimeraPolicy
	FixedPolicy   = engine.FixedPolicy
	FCFS          = engine.FCFS
)

// LaunchSpec and ProcessSpec describe an application's kernel launches.
type (
	LaunchSpec  = engine.LaunchSpec
	ProcessSpec = engine.ProcessSpec
)

// PeriodicSpec is the §4.1 synthetic real-time task; PeriodRecord one
// instance's measured outcome.
type (
	PeriodicSpec = engine.PeriodicSpec
	PeriodRecord = engine.PeriodRecord
)

// RequestRecord is the measured outcome of one preemption request.
type RequestRecord = engine.RequestRecord

// NewSimulation creates a simulator (Table 1 configuration when
// SimOptions.Config is zero).
func NewSimulation(opts SimOptions) *Simulation { return engine.New(opts) }

// Workload catalog ----------------------------------------------------------

// WorkloadCatalog is the Table 2 kernel and benchmark library.
type WorkloadCatalog = kernels.Catalog

// KernelSpec is one catalog kernel with its published Table 2 values.
type KernelSpec = kernels.Spec

// Benchmark is one application: an ordered kernel launch sequence.
type Benchmark = kernels.Benchmark

// Catalog returns the shared workload catalog (built on first use).
func Catalog() *WorkloadCatalog { return kernels.Load() }

// Warp-level SM timing (the layer beneath the block-level simulator) ---

// SMConfig parameterizes the warp-level single-SM timing model.
type SMConfig = smsim.Config

// SMResult is one thread block's warp-level timing outcome.
type SMResult = smsim.Result

// DefaultSMConfig models one Table 1 SM at warp granularity.
func DefaultSMConfig() SMConfig { return smsim.DefaultConfig() }

// RunWarpLevel executes one thread block of a kernel program on the
// warp-level SM model and reports its timing (cycles, instructions,
// CPI) — the substrate that grounds the block-level CPI parameters.
func RunWarpLevel(p *KernelProgram, cfg SMConfig) (SMResult, error) {
	return smsim.Run(p, cfg)
}

// Tracing --------------------------------------------------------------

// TraceEvent is one recorded simulation occurrence; TraceRecorder
// consumes them (install via SimOptions.Tracer) and TraceCollector is
// the in-memory recorder. The event schema is documented in
// docs/observability.md.
type (
	TraceEvent     = trace.Event
	TraceRecorder  = trace.Recorder
	TraceCollector = trace.Collector
)

// Trace event kinds.
const (
	TraceKernelLaunch = trace.KernelLaunch
	TraceKernelFinish = trace.KernelFinish
	TraceKernelKill   = trace.KernelKill
	TraceRequest      = trace.Request
	TraceFlushTB      = trace.FlushTB
	TraceSaveTB       = trace.SaveTB
	TraceDrainTB      = trace.DrainTB
	TraceSaveDone     = trace.SaveDone
	TraceRestoreTB    = trace.RestoreTB
	TraceHandover     = trace.Handover
	TraceDeadlineMiss = trace.DeadlineMiss
)

// NewTraceCollector creates an unbounded in-memory trace recorder.
func NewTraceCollector() *TraceCollector { return trace.NewCollector() }

// WritePerfettoTrace writes events as Chrome trace-event JSON, openable
// at ui.perfetto.dev: one track per SM, one per kernel (see
// docs/observability.md for the mapping).
func WritePerfettoTrace(w io.Writer, events []TraceEvent) error {
	return trace.WritePerfetto(w, events)
}

// ParseKernel reads a kernel program in the textual IR emitted by
// DisassembleKernel (see cmd/idemscan and examples/idempotence/kernels
// for the format).
func ParseKernel(r io.Reader) (*KernelProgram, error) { return kernelir.Parse(r) }

// ParseKernelString parses a kernel program from a string.
func ParseKernelString(src string) (*KernelProgram, error) { return kernelir.ParseString(src) }

// DisassembleKernel renders a program in the textual IR.
func DisassembleKernel(p *KernelProgram) string { return kernelir.DisassembleString(p) }

// Functional execution (flush-correctness validation) -------------------

// KernelMemory is a concrete global-memory image produced by functional
// execution.
type KernelMemory = funcsim.Memory

// ExecuteKernel runs one thread block of a kernel program functionally
// and returns the resulting global memory. With flushAt >= 0 the block
// is flushed after that many instructions and re-executed from scratch —
// the SM-flushing recovery path. Comparing the two images validates the
// §3.4 contract: identical up to the breach point, corrupted beyond it.
func ExecuteKernel(p *KernelProgram, flushAt int64) (KernelMemory, error) {
	return funcsim.Execute(p, flushAt)
}
