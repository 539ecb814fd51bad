package engine

import (
	"chimera/internal/eventq"
	"chimera/internal/units"
)

// tbPhase is the lifecycle phase of a thread block instance.
type tbPhase uint8

const (
	tbQueued  tbPhase = iota // waiting for dispatch (fresh, flushed, or saved)
	tbRunning                // executing on an SM
	tbDone                   // completed
)

// threadBlock is the runtime state of one thread block. Progress is
// linear in time between events: a running block advances one warp
// instruction every cpi cycles from its segment start. All observable
// state (the executed counter, and the breach it implies) is what real
// scheduling hardware sees per §3.2/§3.4.
type threadBlock struct {
	kernel *kernelInstance
	index  int

	insts int64 // total warp instructions (== params.InstsPerTB)
	// breachInst is the instruction index of the idempotence breach: the
	// block is unflushable once executedAt reaches it (breachedAt).
	breachInst int64
	// baseCPI is the block's sampled intrinsic CPI; cpi is the effective
	// rate currently in force (baseCPI inflated by memory-bandwidth
	// contention when the contention model is enabled).
	baseCPI float64
	cpi     float64

	// executed is the committed progress at the last sync point. A
	// context switch keeps it across save and restore; a flush resets it
	// to 0.
	executed int64

	// The next five fields share one word.
	phase tbPhase
	// needsRestore marks a context-switched block whose saved context
	// must be reloaded before it can resume.
	needsRestore bool
	// draining marks a running block whose SM is being preempted by
	// draining: it finishes, but its slot is not refilled.
	draining bool
	// frozen marks a running block whose state is being saved (context
	// switch in progress); progress is stopped.
	frozen bool
	// slot is the block's index in sm.resident while it is resident, so
	// removal is a swap with the last entry, not a search and a shift.
	slot int32

	sm *smUnit // SM the block is resident on (running or frozen)
	// placed is the SM's placement counter when the block was placed:
	// sorting a resident list by it restores placement order, the order
	// the planner and the preemption paths observe (smUnit.inPlacementOrder).
	placed uint64

	// startAt is the cycle the current execution segment began (after
	// any restore delay).
	startAt units.Cycles
	// runCycles accumulates wall cycles of completed execution segments,
	// feeding the measured-CPI statistics.
	runCycles units.Cycles

	// doneEv is the pending completion event; the zero Handle when none
	// is armed. It is the block's only event: the breach needs none.
	doneEv eventq.Handle

	// fireDone is the completion callback, created once when the struct
	// is first allocated and kept across free-list recycling (it closes
	// over the struct pointer, whose identity persists). Re-arming the
	// event this way costs zero closure allocations per execution
	// segment — the engine's hottest allocation site before pooling.
	fireDone func(now units.Cycles)
}

// executedAt returns the block's warp-instruction counter at cycle now.
func (tb *threadBlock) executedAt(now units.Cycles) int64 {
	if tb.phase != tbRunning || tb.frozen || now <= tb.startAt {
		return tb.executed
	}
	delta := int64(float64(now-tb.startAt) / tb.cpi)
	if total := tb.executed + delta; total < tb.insts {
		return total
	}
	return tb.insts
}

// breachedAt reports whether the block is past its non-idempotent point
// at cycle now — the condition the notification store makes visible to
// the scheduler. The breach is a function of progress, so no event
// marks it.
func (tb *threadBlock) breachedAt(now units.Cycles) bool {
	return tb.executedAt(now) >= tb.breachInst
}

// remainingCycles returns the wall time left until completion if the
// block keeps running undisturbed from cycle now.
func (tb *threadBlock) remainingCycles(now units.Cycles) units.Cycles {
	rem := tb.insts - tb.executedAt(now)
	if rem <= 0 {
		return 0
	}
	return units.Cycles(float64(rem)*tb.cpi + 0.999999)
}

// sync commits progress up to cycle now: the executed counter advances,
// the delta is charged to the process's issued-instruction account, and a
// new segment starts at now. Only meaningful while running.
func (tb *threadBlock) sync(now units.Cycles) {
	if tb.phase != tbRunning || tb.frozen {
		return
	}
	cur := tb.executedAt(now)
	delta := cur - tb.executed
	if delta > 0 {
		tb.kernel.process.addIssued(delta)
	}
	if now > tb.startAt {
		tb.runCycles += now - tb.startAt
	}
	tb.executed = cur
	tb.startAt = now
}

// cancelDone drops the pending completion event, if any.
func (tb *threadBlock) cancelDone(q *eventq.Queue) {
	q.Cancel(tb.doneEv)
	tb.doneEv = eventq.Handle{}
}
