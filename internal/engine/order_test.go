package engine

import (
	"reflect"
	"testing"

	"chimera/internal/gpu"
	"chimera/internal/preempt"
	"chimera/internal/units"
)

// interleavedSM places four blocks on a one-SM device, then completes
// blocks 1, 0 and 3 at cycles 10, 20 and 30. Each completion refills
// the slot with the next fresh block, so blocks 2, 4, 5 and 6 are left
// resident, placed in that order. Removal swaps the last resident block
// into the hole, which leaves the live list as [4 5 2 6]. The
// placement order of the remaining blocks is 2, 4, 5, 6.
func interleavedSM(t *testing.T) (*Simulation, *kernelInstance, *smUnit) {
	t.Helper()
	cfg := gpu.DefaultConfig()
	cfg.NumSMs = 1
	sim := New(Options{Config: cfg, Policy: FixedPolicy{Technique: preempt.Flush},
		Constraint: units.FromMicroseconds(15), Seed: 1})
	k := testInstance(testParams(), 16)
	k.process.sim = sim
	k.smSet = make([]*smUnit, cfg.NumSMs)
	sm := sim.sms[0]
	sim.assignSM(sm, k, 0)
	for i, index := range []int{1, 0, 3} {
		tb := residentBlock(t, sm, index)
		tb.cancelDone(&sim.q)
		sim.tbComplete(tb, units.Cycles(10*(i+1)))
	}
	return sim, k, sm
}

// residentBlock finds the block with the given grid index on sm.
func residentBlock(t *testing.T, sm *smUnit, index int) *threadBlock {
	t.Helper()
	for _, tb := range sm.resident {
		if tb.index == index {
			return tb
		}
	}
	t.Fatalf("block %d not resident", index)
	return nil
}

func blockIndices(tbs []*threadBlock) []int {
	var out []int
	for _, tb := range tbs {
		out = append(out, tb.index)
	}
	return out
}

// TestResidentOrderSurvivesRemoval pins what the O(1) removal must not
// change: the planner's snapshot lists the blocks in placement order, a
// flush plan requeues them in that order, and killKernel removes the
// newest first, however removals have permuted the live list.
func TestResidentOrderSurvivesRemoval(t *testing.T) {
	placed := []int{2, 4, 5, 6}
	const now = units.Cycles(40) // well before any block's breach point

	t.Run("snapshot", func(t *testing.T) {
		_, _, sm := interleavedSM(t)
		var got []int
		for _, tb := range sm.snapshot(now).TBs {
			got = append(got, tb.Index)
		}
		if !reflect.DeepEqual(got, placed) {
			t.Errorf("snapshot lists blocks %v, want placement order %v", got, placed)
		}
	})

	t.Run("flush requeue", func(t *testing.T) {
		_, k, sm := interleavedSM(t)
		plan := preempt.SMPlan{SM: sm.id}
		for _, index := range placed {
			plan.TBs = append(plan.TBs, preempt.TBPlan{Index: index, Technique: preempt.Flush})
		}
		sm.executePlan(plan, &RequestRecord{At: now, NumSMs: 1}, 0, now)
		if len(sm.resident) != 0 {
			t.Fatalf("%d blocks still resident after a full flush", len(sm.resident))
		}
		if got := blockIndices(k.pendingQ); !reflect.DeepEqual(got, placed) {
			t.Errorf("flush requeued blocks %v, want placement order %v", got, placed)
		}
	})

	t.Run("kill newest first", func(t *testing.T) {
		sim, k, sm := interleavedSM(t)
		var want []*threadBlock
		for i := len(placed) - 1; i >= 0; i-- {
			want = append(want, residentBlock(t, sm, placed[i]))
		}
		freed := len(sim.tbFree)
		sim.killKernel(k, now)
		// killKernel returns the blocks to the pool as it removes them.
		if got := sim.tbFree[freed:]; !reflect.DeepEqual(got, want) {
			t.Errorf("kill removed blocks %v, want newest first %v", blockIndices(got), blockIndices(want))
		}
	})
}
