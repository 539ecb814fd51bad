package engine

import (
	"chimera/internal/gpu"
	"chimera/internal/rng"
	"chimera/internal/sched/predict"
	"chimera/internal/units"
)

// kernelInstance is one launch of a kernel: a grid of thread blocks being
// executed, the set of SMs it currently owns, and its preempted-block
// queue. Measured statistics are shared across launches of the same
// kernel (the driver knows kernel identity), so estimates warm up once
// per kernel, not once per launch.
type kernelInstance struct {
	id      gpu.KernelID
	params  gpu.KernelParams
	process *process

	grid        int
	launchedAt  units.Cycles
	finishedAt  units.Cycles
	priority    int
	arrival     int
	done        bool
	outstanding int // thread blocks not yet completed
	nextFresh   int // next fresh thread-block index

	// pendingQ holds preempted thread blocks awaiting re-dispatch;
	// the thread block scheduler always prefers these over fresh blocks
	// (§3.1) so the queue stays bounded.
	pendingQ []*threadBlock

	// smSet is the set of SMs currently assigned to this kernel, as a
	// dense slice indexed by SMID (nil = not owned) with nsms tracking
	// the live count. Index order is SMID order, so every iteration is
	// deterministic by construction — the property kernelFinished's
	// free-list handling needs — without the sort a map would force.
	smSet []*smUnit
	nsms  int

	// slot/slotGen stamp the kernel's index in the scheduler's active
	// list for the rebalance pass identified by slotGen, replacing a
	// per-pass map.
	slot    int
	slotGen uint64

	// est is the running estimate of the §3.2 cost-model inputs;
	// shared per kernel label across launches.
	est *predict.Running

	rng *rng.Source
	// cpiMu is the lognormal location of the block CPI distribution
	// (rng.LogNormalMu of BaseCPI and CPISigma), computed once per launch.
	cpiMu float64
	// breachInst is params.BreachInst(), computed once per launch and
	// copied into every fresh block.
	breachInst int64
}

// addSM records ownership of an SM.
func (k *kernelInstance) addSM(sm *smUnit) {
	if k.smSet[sm.id] == nil {
		k.nsms++
	}
	k.smSet[sm.id] = sm
}

// removeSM drops ownership of an SM (no-op if not owned).
func (k *kernelInstance) removeSM(sm *smUnit) {
	if k.smSet[sm.id] != nil {
		k.nsms--
		k.smSet[sm.id] = nil
	}
}

// wantSMs is the kernel's SM demand for the partitioning policy: the SMs
// it is already using productively plus enough additional SMs to host its
// queued (preempted or fresh) thread blocks, and no more — size-bound
// kernels request less than the even split (§4). SMs in the middle of
// being handed away do not count: their blocks are leaving. Demanding
// only what can actually be dispatched keeps the kernel scheduler's
// fixpoint stable (an SM granted beyond this would be released
// immediately, re-triggering rebalancing forever).
func (k *kernelInstance) wantSMs() int {
	used := 0
	for _, sm := range k.smSet {
		if sm != nil && len(sm.resident) > 0 && sm.handover == nil {
			used++
		}
	}
	queued := len(k.pendingQ) + (k.grid - k.nextFresh)
	per := k.params.TBsPerSM
	return used + (queued+per-1)/per
}

// dispatchable reports whether the kernel has a thread block ready for a
// free slot.
func (k *kernelInstance) dispatchable() bool {
	return len(k.pendingQ) > 0 || k.nextFresh < k.grid
}

// nextTB pops the next thread block to dispatch: preempted blocks first,
// then fresh ones. Returns nil when nothing is ready.
func (k *kernelInstance) nextTB() *threadBlock {
	if len(k.pendingQ) > 0 {
		tb := k.pendingQ[0]
		k.pendingQ = k.pendingQ[1:]
		return tb
	}
	if k.nextFresh < k.grid {
		tb := k.process.sim.allocTB()
		tb.kernel = k
		tb.index = k.nextFresh
		tb.insts = k.params.InstsPerTB
		tb.breachInst = k.breachInst
		k.nextFresh++
		return tb
	}
	return nil
}

// requeue puts a preempted thread block back at the tail of the pending
// queue. Flushed blocks arrive reset; switched blocks carry their saved
// progress and a pending restore.
func (k *kernelInstance) requeue(tb *threadBlock) {
	tb.phase = tbQueued
	tb.sm = nil
	tb.draining = false
	tb.frozen = false
	k.pendingQ = append(k.pendingQ, tb)
}

// sampleCPI draws the per-thread-block CPI for a fresh run.
func (k *kernelInstance) sampleCPI() float64 {
	if k.params.CPISigma == 0 {
		return k.params.BaseCPI
	}
	cpi := 0.0 // rng.LogNormalMean's result for a non-positive mean
	if k.params.BaseCPI > 0 {
		cpi = k.rng.LogNormal(k.cpiMu, k.params.CPISigma)
	}
	// Guard the tail: a CPI below issue rate is unphysical and a huge
	// tail sample would make single events dominate a whole run.
	if min := k.params.BaseCPI * 0.25; cpi < min {
		cpi = min
	}
	if max := k.params.BaseCPI * 8; cpi > max {
		cpi = max
	}
	return cpi
}

// estimate assembles the estimator-visible view of this kernel (§3.2)
// for preemption planning: the running estimate, applied once its
// confidence reaches predict.DefaultConfidenceGate, over the statically
// known switch timings. Below the gate the cost models keep their
// conservative fallbacks.
func (k *kernelInstance) estimate(cfg gpu.Config) gpu.KernelEstimate {
	e := gpu.KernelEstimate{
		SMSwitchCycles:   k.params.SwitchCycles(cfg),
		TBSwitchCycles:   k.params.TBSwitchCycles(cfg),
		StrictIdempotent: k.params.StrictIdempotent,
	}
	k.est.Estimate().Apply(&e, predict.DefaultConfidenceGate)
	if e.HasCPI && e.AvgCPI > 0 {
		e.SMIPC = float64(k.params.TBsPerSM) / e.AvgCPI
		e.HasIPC = true
	}
	return e
}
