package engine

import "chimera/internal/units"

// Memory-bandwidth contention model.
//
// The paper's own evaluation halts an SM for the estimated context
// switch time and explicitly notes the simplification: "the memory
// bandwidth consumed by context switching will affect other SMs to slow
// down in reality and vice versa" (§4), making its context-switch
// results "rather optimistic". This file implements that missing
// effect as an opt-in extension: while context save/restore streams are
// in flight, every running thread block's effective CPI is inflated by
//
//	factor = 1 + ContentionBeta × activeTransfers / NumSMs
//
// — each active stream claims one SM's share of DRAM bandwidth, and
// ContentionBeta scales how memory-bound the running kernels are
// (beta 0 disables the model and reproduces the paper's methodology;
// beta 1 treats kernels as fully bandwidth-bound).

// contentionFactor is the CPI multiplier currently in force.
func (s *Simulation) contentionFactor() float64 {
	if s.opts.ContentionBeta == 0 || s.activeTransfers == 0 {
		return 1
	}
	return 1 + s.opts.ContentionBeta*float64(s.activeTransfers)/float64(s.cfg.NumSMs)
}

// beginTransfer and endTransfer bracket one context save or restore
// stream. Rate changes resynchronize every running block.
func (s *Simulation) beginTransfer(now units.Cycles) {
	s.activeTransfers++
	s.applyContention(now)
}

func (s *Simulation) endTransfer(now units.Cycles) {
	if s.activeTransfers <= 0 {
		panic("engine: endTransfer without beginTransfer")
	}
	s.activeTransfers--
	s.applyContention(now)
}

// applyContention re-rates every running block to the current factor:
// progress to date is committed at the old rate, the remainder is
// re-scheduled at the new one. Blocks re-arm in placement order, which
// fixes the sequence numbers of their new events.
func (s *Simulation) applyContention(now units.Cycles) {
	if s.opts.ContentionBeta == 0 {
		return
	}
	f := s.contentionFactor()
	for _, sm := range s.sms {
		for _, tb := range sm.inPlacementOrder() {
			if tb.phase != tbRunning || tb.frozen {
				continue
			}
			newCPI := tb.baseCPI * f
			if newCPI == tb.cpi {
				continue
			}
			start := now
			if tb.startAt > now {
				// Block still waiting behind a restore: keep its start.
				start = tb.startAt
			} else {
				tb.sync(now)
			}
			tb.cpi = newCPI
			tb.cancelDone(&s.q)
			sm.scheduleDone(tb, start)
			tb.startAt = start
		}
	}
}

// trackTransfer brackets a transfer window [from, to] with begin/end
// events (beginning immediately when from <= now).
func (s *Simulation) trackTransfer(now, from, to units.Cycles) {
	if s.opts.ContentionBeta == 0 {
		return
	}
	if from <= now {
		s.beginTransfer(now)
	} else {
		s.q.Schedule(from, s.beginTransfer)
	}
	s.q.Schedule(to, s.endTransfer)
}
