package engine

import (
	"fmt"

	"chimera/internal/eventq"
	"chimera/internal/gpu"
	"chimera/internal/preempt"
	"chimera/internal/trace"
	"chimera/internal/units"
)

// smUnit is the runtime state of one streaming multiprocessor.
type smUnit struct {
	id  gpu.SMID
	sim *Simulation

	kernel *kernelInstance // owner; nil when free
	// resident holds the blocks on the SM in no particular order: a
	// removal moves the last block into the hole. Readers that observe
	// order iterate inPlacementOrder instead.
	resident []*threadBlock
	// placements counts blocks placed on this SM; each placed block
	// takes the current count as its stamp (threadBlock.placed).
	placements uint64

	// restoreTail serializes context restores on this SM: the cycle at
	// which the last scheduled restore finishes.
	restoreTail units.Cycles

	// handover is non-nil while the SM is being preempted.
	handover *handoverState

	// busyCycles accumulates time with at least one resident block;
	// busySince is the start of the current busy span (valid while
	// resident is non-empty).
	busyCycles units.Cycles
	busySince  units.Cycles

	// idleSince is the start of the current idle span and everBusy
	// whether the SM has hosted a block before — together they meter
	// the between-busy-spans idle gaps for the metrics registry.
	idleSince units.Cycles
	everBusy  bool

	// snapScratch backs the TB slice of this SM's snapshots, reused
	// across preemption-planning rounds.
	snapScratch []gpu.TBSnapshot
}

// noteResidentChange maintains the busy-time account around a resident
// list mutation: call with the count before the change and the current
// cycle after applying it.
//
//chimera:hot
func (sm *smUnit) noteResidentChange(before int, now units.Cycles) {
	after := len(sm.resident)
	switch {
	case before == 0 && after > 0:
		sm.busySince = now
		if sm.everBusy {
			sm.sim.observeIdleGap(now - sm.idleSince)
		}
	case before > 0 && after == 0:
		sm.busyCycles += now - sm.busySince
		sm.idleSince = now
		sm.everBusy = true
	}
}

// busyAt reports the SM's accumulated busy time as of cycle now.
//
//chimera:hot
func (sm *smUnit) busyAt(now units.Cycles) units.Cycles {
	total := sm.busyCycles
	if len(sm.resident) > 0 {
		total += now - sm.busySince
	}
	return total
}

// handoverState tracks one SM's in-flight preemption: the SM is handed to
// the requester once every constituent (context save, drained blocks) has
// finished.
type handoverState struct {
	req *RequestRecord
	// outstanding counts unfinished constituents: one per draining
	// block, one per in-flight context-save batch, plus one for an
	// injected stall (fault plane) while it is pending.
	outstanding int
	// frozen are the blocks being context-switched, still resident until
	// their save batch completes.
	frozen []*threadBlock
	// stallEv is the pending injected-stall constituent, the zero Handle
	// once it expires or the watchdog escalates past it.
	stallEv eventq.Handle
	// cancelled marks an aborted preemption (the requesting task was
	// killed); late events must become no-ops.
	cancelled bool
}

// removeFrozen drops one block from the frozen list.
func (h *handoverState) removeFrozen(tb *threadBlock) {
	for i, f := range h.frozen {
		if f == tb {
			h.frozen = append(h.frozen[:i], h.frozen[i+1:]...)
			return
		}
	}
}

// inPlacementOrder returns a copy of the resident list sorted by
// placement stamp: the order the list would keep if removal shifted
// instead of swapping. Five readers observe that order: the planner's
// snapshot, the requeue and freeze order of executePlan and escalate,
// the re-arm order of applyContention (it sets event sequence numbers)
// and killKernel's newest-first removal. The copy is the simulation's
// residentScratch, valid until the next call. An SM holds at most
// TBsPerSM blocks, so an insertion sort is the cheapest sort here.
//
//chimera:hot
func (sm *smUnit) inPlacementOrder() []*threadBlock {
	blocks := append(sm.sim.residentScratch[:0], sm.resident...)
	for i := 1; i < len(blocks); i++ {
		for j := i; j > 0 && blocks[j].placed < blocks[j-1].placed; j-- {
			blocks[j], blocks[j-1] = blocks[j-1], blocks[j]
		}
	}
	sm.sim.residentScratch = blocks
	return blocks
}

// snapshot captures the scheduler-visible state of the SM for cost
// estimation, blocks in placement order. The TB slice is scratch owned
// by the SM, valid until the next snapshot of the same SM — the
// policy's Select reads it synchronously and does not retain it.
//
//chimera:hot
func (sm *smUnit) snapshot(now units.Cycles) gpu.SMSnapshot {
	snap := gpu.SMSnapshot{SM: sm.id, TBs: sm.snapScratch[:0]}
	for _, tb := range sm.inPlacementOrder() {
		run := tb.runCycles
		if tb.phase == tbRunning && !tb.frozen && now > tb.startAt {
			run += now - tb.startAt
		}
		snap.TBs = append(snap.TBs, gpu.TBSnapshot{
			Index:     tb.index,
			Executed:  tb.executedAt(now),
			RunCycles: run,
			Breached:  tb.breachedAt(now),
		})
	}
	sm.snapScratch = snap.TBs
	return snap
}

// fill dispatches thread blocks into free slots. If the SM ends up
// completely empty with nothing left to dispatch, it is released back to
// the device (the size-bound tail of a kernel frees SMs early, §4).
//
//chimera:hot
func (sm *smUnit) fill(now units.Cycles) {
	k := sm.kernel
	if k == nil || sm.handover != nil || k.done {
		return
	}
	for len(sm.resident) < k.params.TBsPerSM && k.dispatchable() {
		sm.place(k.nextTB(), now)
	}
	if len(sm.resident) == 0 {
		sm.sim.releaseSM(sm, now)
	}
}

// place starts (or resumes) a thread block on this SM.
//
//chimera:hot
func (sm *smUnit) place(tb *threadBlock, now units.Cycles) {
	k := sm.kernel
	start := now
	if tb.needsRestore {
		// Context restores serialize on the SM's bandwidth share; the
		// slot idles until its restore completes.
		begin := now
		if sm.restoreTail > begin {
			begin = sm.restoreTail
		}
		start = begin + k.params.TBSwitchCycles(sm.sim.cfg)
		sm.restoreTail = start
		tb.needsRestore = false
		sm.sim.trackTransfer(now, begin, start)
		if sm.sim.tracing {
			sm.sim.emit(trace.Event{At: now, Kind: trace.RestoreTB, Kernel: k.params.Label,
				SM: int(sm.id), TB: tb.index,
				Lat:    start - now,
				Dur:    k.params.TBSwitchCycles(sm.sim.cfg),
				Bytes:  k.params.ContextBytesPerTB,
				Detail: fmt.Sprintf("resume@%v", start)}) //chimera:allow hotalloc tracing-only: guarded by sm.sim.tracing, off on the measured path
		}
	}
	if tb.executed == 0 {
		// Fresh run (first dispatch or re-execution after a flush).
		tb.baseCPI = k.sampleCPI()
		tb.runCycles = 0
	}
	tb.cpi = tb.baseCPI * sm.sim.contentionFactor()
	tb.phase = tbRunning
	tb.frozen = false
	tb.draining = false
	tb.sm = sm
	tb.startAt = start
	tb.slot = int32(len(sm.resident))
	tb.placed = sm.placements
	sm.placements++
	before := len(sm.resident)
	sm.resident = append(sm.resident, tb)
	sm.noteResidentChange(before, now)
	sm.scheduleDone(tb, start)
}

// scheduleDone arms the completion event of a running block whose
// segment begins at start. The callback is the block's pooled closure —
// no allocation per segment.
//
//chimera:hot
func (sm *smUnit) scheduleDone(tb *threadBlock, start units.Cycles) {
	rem := tb.insts - tb.executed
	tb.doneEv = sm.sim.q.Schedule(start+cyclesCeil(float64(rem)*tb.cpi), tb.fireDone)
}

// removeResident detaches a block from the SM's resident list at cycle
// now (the busy-time account needs the timestamp). The last block moves
// into the hole; placement stamps keep the order readers observe.
//
//chimera:hot
func (sm *smUnit) removeResident(tb *threadBlock, now units.Cycles) {
	i, before := int(tb.slot), len(sm.resident)
	if i >= before || sm.resident[i] != tb {
		panic(fmt.Sprintf("engine: SM%d: block %d not resident", sm.id, tb.index)) //chimera:allow hotalloc panic path: formats once while crashing, never on the steady state
	}
	last := sm.resident[before-1]
	sm.resident[i] = last
	last.slot = tb.slot
	sm.resident = sm.resident[:before-1]
	sm.noteResidentChange(before, now)
}

// executePlan carries out a preemption plan on this SM at cycle now:
// flushes drop their blocks immediately (when legal), switched blocks
// freeze and their contexts stream out, drained blocks run to completion
// with their slots left unfilled. A non-zero stall (fault plane) adds
// one artificial constituent holding the handover open for stall extra
// cycles — the injected technique hang the watchdog escalates past.
func (sm *smUnit) executePlan(plan preempt.SMPlan, req *RequestRecord, stall, now units.Cycles) {
	if sm.handover != nil {
		panic(fmt.Sprintf("engine: SM%d: overlapping preemptions", sm.id))
	}
	k := sm.kernel
	h := &handoverState{req: req}
	sm.handover = h
	if stall > 0 {
		h.outstanding++
		h.stallEv = sm.sim.q.Schedule(now+stall, func(at units.Cycles) { sm.stallExpired(h, at) })
	}

	var saveCycles units.Cycles
	// Iterate over a placement-ordered copy: flushing mutates
	// sm.resident, and the order sets the requeue and freeze order. No
	// other user of the copy's scratch buffer can run before this loop
	// finishes (executePlan and escalate only recurse through
	// completeHandover, called after their loops).
	for _, tb := range sm.inPlacementOrder() {
		// Plans carry at most TBsPerSM entries, so a linear scan beats
		// any map here.
		tech, ok := preempt.Drain, false
		for _, tp := range plan.TBs {
			if tp.Index == tb.index {
				tech, ok = tp.Technique, true
				break
			}
		}
		if !ok {
			// A block that appeared after the snapshot (cannot happen:
			// plans are built and executed at the same cycle) would be
			// a scheduler bug.
			panic(fmt.Sprintf("engine: SM%d: no plan for block %d", sm.id, tb.index))
		}
		switch tech {
		case preempt.Flush:
			if sm.sim.flushLegal(tb, now) {
				sm.flushTB(tb, now, req)
				continue
			}
			// The plan wanted a flush but the block is (now) past its
			// breach point: the SM cannot drop it, so it must be waited
			// out — drain semantics, recorded as such.
			fallthrough
		case preempt.Drain:
			tb.draining = true
			h.outstanding++
			req.mix[preempt.Drain]++
			if sm.sim.tracing {
				sm.sim.emit(trace.Event{At: now, Kind: trace.DrainTB, Kernel: k.params.Label, SM: int(sm.id), TB: tb.index,
					Insts: tb.executedAt(now), Dur: tb.remainingCycles(now)})
			}
		case preempt.Switch:
			tb.sync(now)
			tb.frozen = true
			tb.cancelDone(&sm.sim.q)
			h.frozen = append(h.frozen, tb)
			saveCycles += k.params.TBSwitchCycles(sm.sim.cfg)
			req.mix[preempt.Switch]++
			sm.sim.emit(trace.Event{At: now, Kind: trace.SaveTB, Kernel: k.params.Label, SM: int(sm.id), TB: tb.index,
				Insts: tb.executed,
				Bytes: k.params.ContextBytesPerTB,
				Dur:   k.params.TBSwitchCycles(sm.sim.cfg)})
		}
	}

	if len(h.frozen) > 0 {
		sm.scheduleSave(h, append([]*threadBlock(nil), h.frozen...), saveCycles, now)
	}
	if h.outstanding == 0 {
		sm.completeHandover(now)
	}
}

// stallExpired retires the injected-stall constituent: the hung
// technique "recovers" on its own, unless the watchdog already
// escalated past it (stallEv zero) or the preemption was cancelled.
func (sm *smUnit) stallExpired(h *handoverState, now units.Cycles) {
	if h.cancelled || sm.handover != h || h.stallEv == (eventq.Handle{}) {
		return
	}
	h.stallEv = eventq.Handle{}
	h.outstanding--
	if h.outstanding == 0 {
		sm.completeHandover(now)
	}
}

// escalate strengthens this SM's in-flight handover: the injected
// stall (if any) is abandoned and every still-draining block moves up
// the technique ladder — flushed when legal right now, context-switched
// otherwise. Blocks already switching are left alone (there is nothing
// stronger). Returns whether anything changed.
func (sm *smUnit) escalate(now units.Cycles) bool {
	h := sm.handover
	if h == nil || h.cancelled {
		return false
	}
	changed := false
	if h.stallEv != (eventq.Handle{}) {
		sm.sim.q.Cancel(h.stallEv)
		h.stallEv = eventq.Handle{}
		h.outstanding--
		changed = true
	}
	k := sm.kernel
	var batch []*threadBlock
	var saveCycles units.Cycles
	// Iterate over a placement-ordered copy: flushing mutates
	// sm.resident (same scratch discipline as executePlan).
	for _, tb := range sm.inPlacementOrder() {
		if !tb.draining {
			continue
		}
		// The drain constituent is replaced by a stronger technique
		// either way; re-attribute its counts.
		h.outstanding--
		h.req.mix[preempt.Drain]--
		changed = true
		if sm.sim.flushLegal(tb, now) {
			sm.flushTB(tb, now, h.req)
			continue
		}
		tb.sync(now)
		tb.draining = false
		tb.frozen = true
		tb.cancelDone(&sm.sim.q)
		h.frozen = append(h.frozen, tb)
		batch = append(batch, tb)
		saveCycles += k.params.TBSwitchCycles(sm.sim.cfg)
		h.req.mix[preempt.Switch]++
		sm.sim.emit(trace.Event{At: now, Kind: trace.SaveTB, Kernel: k.params.Label, SM: int(sm.id), TB: tb.index,
			Insts: tb.executed,
			Bytes: k.params.ContextBytesPerTB,
			Dur:   k.params.TBSwitchCycles(sm.sim.cfg)})
	}
	if len(batch) > 0 {
		sm.scheduleSave(h, batch, saveCycles, now)
	}
	if changed && h.outstanding == 0 {
		sm.completeHandover(now)
	}
	return changed
}

// flushTB drops one (idempotent) block instantly: its progress is
// discarded and the block re-enters the kernel's queue from scratch.
func (sm *smUnit) flushTB(tb *threadBlock, now units.Cycles, req *RequestRecord) {
	k := sm.kernel
	tb.sync(now)
	k.process.addWasted(tb.executed)
	if req != nil {
		req.mix[preempt.Flush]++
	}
	sm.sim.emit(trace.Event{At: now, Kind: trace.FlushTB, Kernel: k.params.Label, SM: int(sm.id), TB: tb.index,
		Insts: tb.executed})
	tb.cancelDone(&sm.sim.q)
	sm.removeResident(tb, now)
	tb.executed = 0
	tb.runCycles = 0
	tb.needsRestore = false
	k.requeue(tb)
}

// scheduleSave arms one context-save batch as a new handover
// constituent finishing saveCycles from now. Saves are batch-granular
// so a watchdog escalation can add its own batch while the plan's
// original save is still streaming out.
func (sm *smUnit) scheduleSave(h *handoverState, batch []*threadBlock, saveCycles, now units.Cycles) {
	h.outstanding++
	sm.sim.q.Schedule(now+saveCycles, func(at units.Cycles) { sm.saveBatchDone(h, batch, at) })
	sm.sim.trackTransfer(now, now, now+saveCycles)
}

// saveBatchDone fires when one batch of frozen blocks has streamed its
// context out: those blocks leave the SM carrying their saved progress.
func (sm *smUnit) saveBatchDone(h *handoverState, batch []*threadBlock, now units.Cycles) {
	if h.cancelled {
		return
	}
	k := sm.kernel
	saved := units.Bytes(len(batch)) * k.params.ContextBytesPerTB
	for _, tb := range batch {
		sm.removeResident(tb, now)
		tb.needsRestore = true
		k.requeue(tb)
		h.removeFrozen(tb)
	}
	sm.sim.emit(trace.Event{At: now, Kind: trace.SaveDone, Kernel: k.params.Label, SM: int(sm.id), TB: -1,
		Dur: now - h.req.At, Bytes: saved})
	h.outstanding--
	if h.outstanding == 0 {
		sm.completeHandover(now)
	}
}

// drainedComplete is called from tbComplete for a draining block.
func (sm *smUnit) drainedComplete(now units.Cycles) {
	h := sm.handover
	if h == nil {
		return
	}
	h.outstanding--
	if h.outstanding == 0 {
		sm.completeHandover(now)
	}
}

// completeHandover finishes the preemption: the SM leaves the victim and
// is assigned to the requester (or freed if the requester is gone).
func (sm *smUnit) completeHandover(now units.Cycles) {
	h := sm.handover
	if len(sm.resident) != 0 {
		panic(fmt.Sprintf("engine: SM%d: handover with %d residents", sm.id, len(sm.resident)))
	}
	sm.handover = nil
	victim := sm.kernel
	victim.removeSM(sm)
	sm.kernel = nil
	sm.restoreTail = 0
	wasComplete := h.req.Completed
	h.req.smArrived(now)
	if !wasComplete && h.req.Completed {
		sm.sim.observeRequestComplete(h.req)
	}
	sm.sim.emit(trace.Event{At: now, Kind: trace.Handover, Kernel: victim.params.Label, SM: int(sm.id), TB: -1,
		Other: h.req.Requester, Lat: now - h.req.At})
	to := h.req.requester
	if to != nil && !to.done {
		sm.sim.assignSM(sm, to, now)
	} else {
		sm.sim.freeSM(sm, now)
	}
}

// cancelHandover aborts an in-flight preemption (the requesting task was
// killed): frozen blocks resume in place — their partially saved context
// is discarded, costing the freeze time as idle slots — and draining
// blocks go back to normal execution with their slots refillable again.
func (sm *smUnit) cancelHandover(now units.Cycles) {
	h := sm.handover
	if h == nil {
		return
	}
	h.cancelled = true
	h.req.Killed = true
	sm.handover = nil
	sm.sim.q.Cancel(h.stallEv)
	h.stallEv = eventq.Handle{}
	for _, tb := range h.frozen {
		tb.frozen = false
		tb.startAt = now
		sm.scheduleDone(tb, now)
	}
	h.frozen = nil
	for _, tb := range sm.resident {
		tb.draining = false
	}
	if k := sm.kernel; k != nil && k.done && len(sm.resident) == 0 {
		// The victim finished while the handover was stall-held and now
		// the requester is gone too; nothing will ever refill this SM,
		// so return it to the pool directly.
		sm.sim.releaseSM(sm, now)
		return
	}
	sm.fill(now)
}

// cyclesCeil converts a non-negative float cycle count to Cycles,
// rounding up so completion events never fire before the modelled work
// is done.
func cyclesCeil(f float64) units.Cycles {
	c := units.Cycles(f)
	if float64(c) < f {
		c++
	}
	return c
}
