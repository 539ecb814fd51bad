// Package core implements Chimera's contribution: the collaborative
// preemption selection of §3.3 (Algorithm 1) on top of the per-technique
// cost models of §3.2 (implemented in internal/preempt).
//
// Given a preemption request — a latency constraint, a victim kernel and a
// number of SMs to take (all supplied by the SM scheduling policy, which
// is deliberately orthogonal, §3.1) — Chimera chooses which SMs to preempt
// and which technique to apply to each resident thread block, minimizing
// estimated throughput overhead subject to the latency constraint.
package core

import (
	"sort"

	"chimera/internal/gpu"
	"chimera/internal/preempt"
)

// Request is a preemption request as issued by the SM scheduling policy:
// the inputs of Algorithm 1.
type Request struct {
	// ConstraintCycles is the preemption latency upper bound (LatLimit).
	ConstraintCycles float64
	// NumPreempts is the number of SMs to take from the victim kernel.
	NumPreempts int
	// Opts tunes the cost estimators — most importantly Opts.Relaxed,
	// the relaxed idempotence condition for flushing (§3.4).
	Opts preempt.Options
}

// Input is the scheduler-visible state Algorithm 1 consults: a snapshot
// of every SM the victim kernel occupies plus the kernel's measured
// statistics.
type Input struct {
	SMs []gpu.SMSnapshot
	Est gpu.KernelEstimate
}

// Selection is the outcome: one plan per selected SM, in selection order.
type Selection struct {
	Plans []preempt.SMPlan
	// Forced counts plans appended best-effort after Algorithm 1 ran out
	// of SMs meeting the latency constraint. The request must still be
	// honoured (the policy demanded NumPreempts SMs), so the remaining
	// SMs with the lowest estimated latency are taken; these are the
	// preemptions at risk of violating the deadline.
	Forced int
}

// tbCandidate is one (thread block, technique) cost entry of Algorithm 1
// line 4.
type tbCandidate struct {
	cost  preempt.Cost
	order int // position in the SM snapshot, for deterministic ties
}

// maxInlineTBs is the resident-block count up to which PlanSM keeps its
// scratch on the stack: a Table 1 SM holds at most 8 blocks.
const maxInlineTBs = 8

// PlanSM runs lines 2–17 of Algorithm 1 for one SM: estimate every
// (thread block, technique) cost, sort by throughput overhead, pick for
// each block the cheapest technique that meets the latency constraint,
// and fall back to context switching for blocks that cannot meet it with
// any technique. Up to maxInlineTBs resident blocks, the plan's own TB
// slice is its only allocation.
func PlanSM(sm gpu.SMSnapshot, est gpu.KernelEstimate, constraintCycles float64, opts preempt.Options) preempt.SMPlan {
	maxExec := preempt.MaxExecuted(sm)
	var candBuf [maxInlineTBs * preempt.NumTechniques]tbCandidate
	candidates := candBuf[:0]
	if n := len(sm.TBs) * preempt.NumTechniques; n > len(candBuf) {
		candidates = make([]tbCandidate, 0, n)
	}
	for i, tb := range sm.TBs {
		costs := preempt.EstimateAll(tb, est, len(sm.TBs), maxExec, opts)
		for _, c := range costs {
			candidates = append(candidates, tbCandidate{cost: c, order: i})
		}
	}
	// Line 7: sort by throughput overhead (deterministic tie-break on
	// block order then technique order).
	sortCandidates(candidates)

	plan := preempt.SMPlan{SM: sm.SM}
	if len(sm.TBs) > 0 {
		plan.TBs = make([]preempt.TBPlan, len(sm.TBs))
	}
	var chosenBuf [maxInlineTBs]bool
	chosen := chosenBuf[:]
	if len(sm.TBs) > len(chosen) {
		chosen = make([]bool, len(sm.TBs))
	}
	// Lines 8–13: take the cheapest-overhead technique per block that
	// meets the latency constraint.
	for _, cand := range candidates {
		if chosen[cand.order] {
			continue
		}
		if cand.cost.Feasible() && cand.cost.MeetsLatency(constraintCycles) {
			chosen[cand.order] = true
			plan.TBs[cand.order] = preempt.TBPlan{Index: sm.TBs[cand.order].Index, Technique: cand.cost.Technique, Cost: cand.cost}
		}
	}
	// Lines 14–16: blocks that meet the constraint with no technique are
	// context-switched (the technique with bounded, known latency).
	for i, tb := range sm.TBs {
		if !chosen[i] {
			cost := preempt.EstimateSwitch(tb, est, len(sm.TBs), opts)
			plan.TBs[i] = preempt.TBPlan{Index: tb.Index, Technique: preempt.Switch, Cost: cost}
		}
	}
	plan.Aggregate()
	return plan
}

// sortCandidates is a stable insertion sort by throughput overhead, then
// block order, then technique: the order sort.SliceStable gives, with no
// allocation. It sorts at most 8 blocks × 3 techniques.
func sortCandidates(c []tbCandidate) {
	less := func(a, b tbCandidate) bool {
		if a.cost.OverheadInsts != b.cost.OverheadInsts {
			return a.cost.OverheadInsts < b.cost.OverheadInsts
		}
		if a.order != b.order {
			return a.order < b.order
		}
		return a.cost.Technique < b.cost.Technique
	}
	for i := 1; i < len(c); i++ {
		for j := i; j > 0 && less(c[j], c[j-1]); j-- {
			c[j], c[j-1] = c[j-1], c[j]
		}
	}
}

// Select runs Algorithm 1: per-SM planning (lines 1–18), sorting SMs by
// estimated throughput overhead (line 19), and the final selection of
// NumPreempts SMs meeting the latency constraint (lines 20–28). When
// fewer than NumPreempts SMs meet the constraint, the remaining slots are
// filled best-effort with the lowest-latency leftovers (counted in
// Selection.Forced) because the SM scheduling policy's demand is not
// optional.
func Select(req Request, in Input) Selection {
	plans := make([]preempt.SMPlan, 0, len(in.SMs))
	for _, sm := range in.SMs {
		plans = append(plans, PlanSM(sm, in.Est, req.ConstraintCycles, req.Opts))
	}
	return selectFromPlans(req, plans)
}

// SelectPerSMUniform is the ablation of DESIGN.md §5 restricting Chimera
// to a single technique per SM: every SM gets three uniform candidate
// plans, the cheapest-overhead one meeting the latency constraint is
// kept, and SM selection then proceeds as in Algorithm 1. Comparing this
// against Select quantifies the value of per-thread-block technique
// mixing.
func SelectPerSMUniform(req Request, in Input) Selection {
	plans := make([]preempt.SMPlan, 0, len(in.SMs))
	for _, sm := range in.SMs {
		best := preempt.SMPlan{SM: sm.SM, LatencyCycles: preempt.Infeasible, OverheadInsts: preempt.Infeasible}
		haveMeeting := false
		for _, tech := range preempt.Techniques() {
			cand := preempt.Uniform(sm, in.Est, tech, req.Opts)
			meets := cand.MeetsLatency(req.ConstraintCycles)
			better := cand.OverheadInsts < best.OverheadInsts
			if (meets && !haveMeeting) || (meets == haveMeeting && better) {
				best = cand
				haveMeeting = haveMeeting || meets
			}
		}
		plans = append(plans, best)
	}
	return selectFromPlans(req, plans)
}

// selectFromPlans runs lines 19-28 of Algorithm 1 plus the best-effort
// fill over pre-computed per-SM plans.
func selectFromPlans(req Request, plans []preempt.SMPlan) Selection {
	// Line 19: sort all SM costs by throughput overhead.
	sort.SliceStable(plans, func(i, j int) bool {
		a, b := plans[i], plans[j]
		if a.OverheadInsts != b.OverheadInsts {
			return a.OverheadInsts < b.OverheadInsts
		}
		return a.SM < b.SM
	})

	want := req.NumPreempts
	if want > len(plans) {
		want = len(plans)
	}
	var sel Selection
	taken := make([]bool, len(plans))
	// Lines 20–28: pop the cheapest SM meeting the constraint for each
	// slot. (Each SM has exactly one plan, so no duplicate check is
	// needed — §3.3 makes the same observation.)
	for len(sel.Plans) < want {
		found := -1
		for i, p := range plans {
			if !taken[i] && p.MeetsLatency(req.ConstraintCycles) {
				found = i
				break
			}
		}
		if found < 0 {
			break
		}
		taken[found] = true
		sel.Plans = append(sel.Plans, plans[found])
	}
	// Best-effort fill: demand is binding even when the constraint is
	// not satisfiable; take the lowest-latency remainder.
	if len(sel.Plans) < want {
		rest := make([]int, 0, len(plans))
		for i := range plans {
			if !taken[i] {
				rest = append(rest, i)
			}
		}
		sort.SliceStable(rest, func(a, b int) bool {
			pa, pb := plans[rest[a]], plans[rest[b]]
			if pa.LatencyCycles != pb.LatencyCycles {
				return pa.LatencyCycles < pb.LatencyCycles
			}
			if pa.OverheadInsts != pb.OverheadInsts {
				return pa.OverheadInsts < pb.OverheadInsts
			}
			return pa.SM < pb.SM
		})
		for _, i := range rest {
			if len(sel.Plans) == want {
				break
			}
			sel.Plans = append(sel.Plans, plans[i])
			sel.Forced++
		}
	}
	return sel
}
