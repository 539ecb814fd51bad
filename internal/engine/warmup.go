package engine

import (
	"context"
	"fmt"

	"chimera/internal/eventq"
	"chimera/internal/gpu"
	"chimera/internal/rng"
	"chimera/internal/sched/predict"
	"chimera/internal/units"
)

// Shared warm-ups.
//
// The §4.1 task's first instance arrives one period into a run. Until
// then a one-process run is that process alone: one kernel is active at
// a time, so the kernel scheduler never has a deficit to preempt for,
// no request is issued and nothing reads the policy, the constraint,
// the headroom, the watchdog or the stall injector; with no context
// moving, the contention factor stays 1. Every run of one benchmark,
// seed, device and catalog therefore reaches the task's first instance
// in the same state, whatever those options are, and so does its solo
// baseline, which lacks only the task's pending arrival. WarmUp
// simulates that stretch once and keeps its state as a Warmup; Fork
// turns a Warmup into any number of independent simulations, each with
// its own options.

// Warmup is the state of a one-process run with the §4.1 task one
// cycle before the task's first instance, kept compactly: nothing in it
// points into a live simulation. It is immutable, so any number of
// goroutines may Fork one Warmup at once.
type Warmup struct {
	opts Options
	now  units.Cycles

	rnd     rng.Source
	nextKID gpu.KernelID
	arrival int
	slotGen uint64
	est     map[string]predict.Running

	// proc is the process and kernel its current kernel (nil when it has
	// none), with their pointers cleared; kernelRNG is the kernel's
	// random stream. task and taskProc are the periodic task and the
	// process its instances run in, with no instance launched yet.
	proc      process
	kernel    *kernelInstance
	kernelRNG rng.Source
	task      periodicTask
	taskProc  process

	// sms holds each SM's state; its resident blocks are the next
	// warmSM.resident entries of blocks, in resident-list order. free is
	// the free list, and events the pending events in dispatch order.
	sms    []warmSM
	blocks []warmBlock
	free   []gpu.SMID
	events []warmEvent
}

// warmSM is one SM of a Warmup.
type warmSM struct {
	placements                                    uint64
	restoreTail, busyCycles, busySince, idleSince units.Cycles
	everBusy, owned                               bool
	resident                                      int
}

// warmBlock is one resident block of a Warmup: a fresh block of the
// current kernel that has run uninterrupted since it was placed, so its
// progress is its start and its rate, and every other field follows
// from its kernel.
type warmBlock struct {
	index   int
	placed  uint64
	baseCPI float64
	startAt units.Cycles
}

// warmEvent is one pending event of a Warmup: the completion of
// blocks[block], or the task's first arrival when block is -1.
type warmEvent struct {
	at    units.Cycles
	block int
}

// WarmUp runs the simulation up to its periodic task's first instance,
// one cycle before the instance arrives, and returns its state there.
// The simulation must have exactly one process and a periodic task and
// must not run under FCFS; it cannot be run afterwards. A cancelled WarmUp
// returns ctx.Err() like RunContext. The warm-up's metrics, its
// predict/observations included, go to Options.Metrics once, here. It
// panics if the run reaches state that cannot exist before the task's
// first instance: a request, a handover, a context transfer, a queued
// or preempted block, or any pending event other than a running
// block's completion and the task's first arrival.
func (s *Simulation) WarmUp(ctx context.Context) (*Warmup, error) {
	if s.started {
		panic("engine: WarmUp after Run")
	}
	if len(s.processes) != 1 || s.periodic == nil || s.serial {
		panic("engine: WarmUp needs one process, a periodic task and a policy other than FCFS")
	}
	if s.periodic.spec.Period < 1 {
		panic("engine: WarmUp of a periodic task with no period")
	}
	s.started = true
	s.launch()
	if err := s.runUntil(ctx, s.periodic.spec.Period-1); err != nil {
		return nil, err
	}
	return s.warmup(), nil
}

// warmup captures the paused simulation as a Warmup.
func (s *Simulation) warmup() *Warmup {
	t, p := s.periodic, s.processes[0]
	if len(s.requests) != 0 || s.activeTransfers != 0 || len(t.records) != 0 || t.current != nil || t.proc.launches != 0 {
		panic("engine: warm-up went past the task's first instance")
	}
	w := &Warmup{
		opts: s.opts, now: s.q.Now(),
		rnd: *s.rnd, nextKID: s.nextKID, arrival: s.arrival, slotGen: s.slotGen,
		est:  make(map[string]predict.Running, len(s.estByLabel)),
		proc: *p, task: *t, taskProc: *t.proc,
	}
	w.opts.Metrics, w.opts.Tracer = nil, nil
	w.proc.sim, w.proc.current = nil, nil
	w.task.sim, w.task.bench, w.task.proc, w.task.next = nil, nil, nil, eventq.Handle{}
	w.taskProc.sim = nil
	for label, est := range s.estByLabel {
		w.est[label] = *est
	}
	// One process runs one kernel at a time, and no instance of the task
	// has launched: the active list is the process's current kernel, if
	// it has one.
	k := p.current
	switch {
	case len(s.active) == 0 && k == nil:
	case len(s.active) == 1 && s.active[0] == k && len(k.pendingQ) == 0:
		kc := *k
		kc.process, kc.smSet, kc.est, kc.rng, kc.pendingQ = nil, nil, nil, nil, nil
		w.kernel, w.kernelRNG = &kc, *k.rng
	default:
		panic("engine: warm-up with queued blocks or a second kernel")
	}

	// Every slice is allocated at its final length: a warm-up is kept
	// for as long as runs fork it.
	n := 0
	for _, sm := range s.sms {
		n += len(sm.resident)
	}
	w.sms, w.blocks = make([]warmSM, 0, len(s.sms)), make([]warmBlock, 0, n)
	w.free, w.events = make([]gpu.SMID, 0, len(s.free)), make([]warmEvent, 0, n+1)
	blockOf := make(map[eventq.Handle]int, n)
	for _, sm := range s.sms {
		if sm.handover != nil || (sm.kernel != nil && sm.kernel != k) {
			panic(fmt.Sprintf("engine: warm-up with SM%d in a handover or held by no active kernel", sm.id))
		}
		w.sms = append(w.sms, warmSM{
			placements: sm.placements, restoreTail: sm.restoreTail,
			busyCycles: sm.busyCycles, busySince: sm.busySince,
			idleSince: sm.idleSince, everBusy: sm.everBusy,
			owned: sm.kernel != nil, resident: len(sm.resident),
		})
		for j, tb := range sm.resident {
			if tb.kernel != k || tb.phase != tbRunning || tb.frozen || tb.draining || tb.needsRestore ||
				tb.executed != 0 || tb.runCycles != 0 || tb.cpi != tb.baseCPI || int(tb.slot) != j ||
				tb.insts != k.params.InstsPerTB || tb.breachInst != k.breachInst || tb.doneEv == (eventq.Handle{}) {
				panic(fmt.Sprintf("engine: warm-up with block %d on SM%d preempted or run in segments", tb.index, sm.id))
			}
			blockOf[tb.doneEv] = len(w.blocks)
			w.blocks = append(w.blocks, warmBlock{index: tb.index, placed: tb.placed, baseCPI: tb.baseCPI, startAt: tb.startAt})
		}
	}
	for _, sm := range s.free {
		w.free = append(w.free, sm.id)
	}
	for _, ev := range s.q.AppendPending(make([]eventq.Pending, 0, s.q.Len())) {
		b, ok := blockOf[ev.Handle]
		switch {
		case ok:
			delete(blockOf, ev.Handle)
		case ev.Handle == t.next:
			b = -1
		default:
			panic(fmt.Sprintf("engine: warm-up with a pending event at %v that is neither a block completion nor the task's arrival", ev.At))
		}
		w.events = append(w.events, warmEvent{at: ev.At, block: b})
	}
	if len(blockOf) != 0 {
		panic("engine: warm-up with a running block that has no pending completion")
	}
	return w
}

// Fork returns an independent simulation that continues the warm-up
// under opts: Run it to its own window, as far as the warm-up or
// further. It dispatches exactly the events, in exactly the order, that
// the uninterrupted run under opts would; with solo, those of the
// process's plain stand-alone run. The pending events are re-armed in
// their original dispatch order on a queue whose clock stands where the
// warm-up paused, so the events the fork schedules later sort after them
// within a cycle, as they would have in the warm-up's own queue. opts
// sets what nothing reads before the task's first instance (the policy,
// constraint, headroom, contention β, watchdog, stall injector and
// metrics); Fork panics unless the rest are the warm-up's own: its
// device and seed, its warm start and estimate window unless solo (a
// stand-alone run reads no estimate), and no tracer. A Warmup keeps no
// FCFS queue, so opts' policy must not be FCFS either.
func (w *Warmup) Fork(opts Options, solo bool) *Simulation {
	s := New(opts)
	if s.serial {
		panic("engine: Fork under FCFS")
	}
	if s.cfg != w.opts.Config || opts.Seed != w.opts.Seed || opts.Tracer != nil ||
		!solo && (opts.WarmStats != w.opts.WarmStats || opts.EstimateWindow != w.opts.EstimateWindow) {
		panic("engine: Fork with options other than its warm-up's")
	}
	s.forked = true
	*s.rnd = w.rnd
	s.nextKID, s.arrival, s.slotGen = w.nextKID, w.arrival, w.slotGen
	for label, est := range w.est {
		s.estByLabel[label] = &est
	}

	p := &process{}
	*p = w.proc
	p.sim = s
	s.processes = []*process{p}
	var k *kernelInstance
	if w.kernel != nil {
		k = &kernelInstance{}
		*k = *w.kernel
		k.process = p
		k.smSet = make([]*smUnit, len(s.sms))
		k.est = s.estByLabel[k.params.Label]
		r := w.kernelRNG
		k.rng = &r
		s.active = []*kernelInstance{k}
		p.current = k
	}

	blocks := make([]*threadBlock, 0, len(w.blocks))
	for i, ws := range w.sms {
		sm := s.sms[i]
		sm.placements, sm.restoreTail = ws.placements, ws.restoreTail
		sm.busyCycles, sm.busySince = ws.busyCycles, ws.busySince
		sm.idleSince, sm.everBusy = ws.idleSince, ws.everBusy
		if ws.owned {
			sm.kernel = k
			k.smSet[i] = sm
		}
		sm.resident = make([]*threadBlock, ws.resident)
		for j := range sm.resident {
			wb := &w.blocks[len(blocks)]
			tb := s.allocTB()
			tb.kernel, tb.index, tb.insts, tb.breachInst = k, wb.index, k.params.InstsPerTB, k.breachInst
			tb.baseCPI, tb.cpi = wb.baseCPI, wb.baseCPI
			tb.phase, tb.slot, tb.sm, tb.placed, tb.startAt = tbRunning, int32(j), sm, wb.placed, wb.startAt
			sm.resident[j] = tb
			blocks = append(blocks, tb)
		}
	}
	s.free = s.free[:0]
	for _, id := range w.free {
		s.free = append(s.free, s.sms[id])
	}

	if !solo {
		t := &periodicTask{}
		*t = w.task
		t.sim, t.bench = s, p
		t.proc = &process{}
		*t.proc = w.taskProc
		t.proc.sim = s
		s.periodic = t
	}

	s.q.RunUntil(w.now)
	for _, ev := range w.events {
		switch {
		case ev.block >= 0:
			tb := blocks[ev.block]
			tb.doneEv = s.q.Schedule(ev.at, tb.fireDone)
		case s.periodic != nil:
			s.periodic.next = s.q.Schedule(ev.at, s.periodic.fire)
		}
	}
	return s
}
