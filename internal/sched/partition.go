// Package sched implements the SM-partitioning policy of the kernel
// scheduler (Figure 5). The policy decides how many SMs each concurrent
// kernel should occupy; it is deliberately orthogonal to the preemption
// decisions (§3.1) — Chimera merely executes the partition the policy
// asks for.
//
// The policy is the paper's mix of "Smart Even" and "Rounds" spatial
// multitasking (§4): SMs are distributed evenly across kernels, except
// that a kernel never receives more SMs than it can fill (a size-bound
// kernel — too small a grid at launch, or too few remaining thread blocks
// near the end — requests fewer than its even share) and the surplus is
// redistributed to kernels that can still use it.
package sched

import (
	"cmp"
	"slices"
)

// Demand describes one active kernel's appetite for SMs.
type Demand struct {
	// Key identifies the kernel to the caller (e.g. its KernelID).
	Key int
	// Want is the maximum number of SMs the kernel can usefully occupy:
	// ceil(live thread blocks / thread blocks per SM).
	Want int
	// Priority orders allocation: higher priorities are satisfied fully
	// before lower ones see any SMs. The periodic real-time task of §4.1
	// runs at a higher priority than the background benchmark.
	Priority int
	// Arrival breaks ties within a priority level (earlier arrivals get
	// any indivisible remainder first).
	Arrival int
	// Weight scales a kernel's share within its priority level:
	// allocations are weighted max-min fair, so weight 2 targets twice
	// the SMs of weight 1 before either is capped by Want. Zero or
	// negative means 1 (the paper's even split).
	Weight int
}

// weight returns the demand's effective weight.
func (d Demand) weight() float64 {
	if d.Weight <= 0 {
		return 1
	}
	return float64(d.Weight)
}

// Partition computes the target SM allocation for each demand over
// numSMs SMs. The returned slice is parallel to demands. Allocations
// never exceed Want and never sum to more than numSMs.
func Partition(numSMs int, demands []Demand) []int {
	alloc := make([]int, len(demands))
	if numSMs <= 0 || len(demands) == 0 {
		return alloc
	}
	// Group indices by priority, high to low.
	order := make([]int, len(demands))
	for i := range order {
		order[i] = i
	}
	// A stable sort with no reflection: the kernel scheduler partitions
	// on every launch, finish and SM release.
	slices.SortStableFunc(order, func(a, b int) int {
		da, db := demands[a], demands[b]
		if da.Priority != db.Priority {
			return cmp.Compare(db.Priority, da.Priority)
		}
		return cmp.Compare(da.Arrival, db.Arrival)
	})

	remaining := numSMs
	for lo := 0; lo < len(order); {
		hi := lo
		for hi < len(order) && demands[order[hi]].Priority == demands[order[lo]].Priority {
			hi++
		}
		level := order[lo:hi]
		remaining -= allocateLevel(remaining, demands, level, alloc)
		lo = hi
	}
	return alloc
}

// allocateLevel splits avail SMs among one priority level's demands by
// weighted max-min fairness: each SM in turn goes to the unsaturated
// kernel with the smallest allocation-to-weight ratio (ties to the
// earlier position in level, i.e. earlier arrival). With unit weights
// this is the paper's even split with surplus redistribution; unequal
// weights generalize it to proportional shares. It returns the number
// of SMs handed out.
func allocateLevel(avail int, demands []Demand, level []int, alloc []int) int {
	if avail <= 0 || len(level) == 0 {
		return 0
	}
	used := 0
	for used < avail {
		best := -1
		var bestRatio float64
		for _, idx := range level {
			if alloc[idx] >= demands[idx].Want {
				continue
			}
			ratio := float64(alloc[idx]) / demands[idx].weight()
			if best < 0 || ratio < bestRatio {
				best = idx
				bestRatio = ratio
			}
		}
		if best < 0 {
			break // everyone is saturated; leave the rest idle
		}
		alloc[best]++
		used++
	}
	return used
}
