package engine

import (
	"sort"

	"chimera/internal/core"
	"chimera/internal/preempt"
)

// Policy decides how a preemption request is executed: which SMs to take
// from the victim and how to preempt each resident thread block.
type Policy interface {
	// Name is the label used in result tables ("Chimera", "Switch", ...).
	Name() string
	// Select maps a request onto concrete per-SM plans.
	Select(req core.Request, in core.Input) core.Selection
	// Relaxed reports whether flushing may use the relaxed idempotence
	// condition of §3.4 (true for everything except the "strict" arm of
	// Fig 9).
	Relaxed() bool
}

// ChimeraPolicy is the paper's contribution: cost-driven collaborative
// selection (Algorithm 1). The zero value is the configuration evaluated
// in §4; the additional flags select the ablations of DESIGN.md §5.
type ChimeraPolicy struct {
	// StrictIdempotence disables the relaxed condition (Fig 9's strict
	// arm): flushing is only considered for strictly idempotent kernels.
	StrictIdempotence bool
	// OptimisticCold replaces the conservative-maximum fallback for
	// missing statistics with zero.
	OptimisticCold bool
	// CycleBased switches the drain estimator to average execution
	// cycles per block.
	CycleBased bool
	// PerSMUniform restricts Chimera to one technique per SM (no
	// per-thread-block mixing).
	PerSMUniform bool
}

// Name implements Policy.
func (p ChimeraPolicy) Name() string {
	switch {
	case p.StrictIdempotence:
		return "Chimera(strict)"
	case p.OptimisticCold:
		return "Chimera(optimistic)"
	case p.CycleBased:
		return "Chimera(cycle-est)"
	case p.PerSMUniform:
		return "Chimera(per-SM)"
	}
	return "Chimera"
}

// Relaxed implements Policy.
func (p ChimeraPolicy) Relaxed() bool { return !p.StrictIdempotence }

// Select implements Policy via Algorithm 1 (or its per-SM-uniform
// ablation variant).
func (p ChimeraPolicy) Select(req core.Request, in core.Input) core.Selection {
	req.Opts = preempt.Options{
		Relaxed:        p.Relaxed(),
		OptimisticCold: p.OptimisticCold,
		CycleBased:     p.CycleBased,
	}
	if p.PerSMUniform {
		return core.SelectPerSMUniform(req, in)
	}
	return core.Select(req, in)
}

// FCFS is the non-preemptive first-come-first-served baseline of §4.4:
// kernels run one at a time, whole-GPU, in launch order. A run under
// FCFS issues no preemption request, so the engine never calls Select.
type FCFS struct{}

// Name implements Policy.
func (FCFS) Name() string { return "FCFS" }

// Relaxed implements Policy; FCFS flushes nothing.
func (FCFS) Relaxed() bool { return true }

// Select implements Policy: it takes no SM.
func (FCFS) Select(core.Request, core.Input) core.Selection { return core.Selection{} }

// FixedPolicy applies one technique to every thread block of the victim —
// the single-technique baselines of §4. SMs are taken in ascending ID
// order: a baseline has no cost model to prefer one SM over another.
type FixedPolicy struct {
	Technique preempt.Technique
	// StrictIdempotence restricts flushing to strictly idempotent
	// kernels (only meaningful for Technique == Flush).
	StrictIdempotence bool
}

// Name implements Policy.
func (p FixedPolicy) Name() string {
	if p.Technique == preempt.Flush && p.StrictIdempotence {
		return "Flush(strict)"
	}
	return p.Technique.String()
}

// Relaxed implements Policy.
func (p FixedPolicy) Relaxed() bool { return !p.StrictIdempotence }

// Select implements Policy. Under the strict idempotence condition,
// flushing cannot preempt a non-idempotent kernel at all — there is no
// per-block breach point to consult, the whole kernel is off-limits —
// so the request goes unfulfilled (the capability failure behind
// Fig 9's constraint-independent strict violations).
func (p FixedPolicy) Select(req core.Request, in core.Input) core.Selection {
	if p.Technique == preempt.Flush && p.StrictIdempotence && !in.Est.StrictIdempotent {
		return core.Selection{}
	}
	sms := make([]int, len(in.SMs))
	for i := range sms {
		sms[i] = i
	}
	sort.SliceStable(sms, func(a, b int) bool { return in.SMs[sms[a]].SM < in.SMs[sms[b]].SM })
	n := req.NumPreempts
	if n > len(sms) {
		n = len(sms)
	}
	opts := preempt.Options{Relaxed: p.Relaxed()}
	var sel core.Selection
	for _, i := range sms[:n] {
		sel.Plans = append(sel.Plans, preempt.Uniform(in.SMs[i], in.Est, p.Technique, opts))
	}
	return sel
}
