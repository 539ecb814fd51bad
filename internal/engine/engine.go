// Package engine is the discrete-event GPU multitasking simulator — the
// substrate standing in for GPGPU-Sim (§4). It executes kernels at
// thread-block granularity on a configurable number of SMs, implements
// the two-level scheduler of Figure 5 (a kernel scheduler computing
// SM-to-kernel mappings and issuing preemption requests, and a thread
// block scheduler dispatching and preempting blocks), and carries out
// preemption plans produced by a Policy (Chimera or the single-technique
// baselines).
package engine

import (
	"context"
	"fmt"

	"chimera/internal/core"
	"chimera/internal/eventq"
	"chimera/internal/gpu"
	"chimera/internal/metrics"
	"chimera/internal/preempt"
	"chimera/internal/rng"
	"chimera/internal/sched"
	"chimera/internal/sched/predict"
	"chimera/internal/trace"
	"chimera/internal/units"
)

// LaunchSpec is one kernel launch within a process's command stream.
type LaunchSpec struct {
	Params gpu.KernelParams
	Grid   int
}

// ProcessSpec describes one GPGPU application: kernels launched back to
// back (each waits for the previous, as host code does). With Loop set
// the sequence restarts when exhausted — the paper restarts finished
// benchmarks so the last one never runs alone (§4.4).
type ProcessSpec struct {
	Name     string
	Launches []LaunchSpec
	Loop     bool
	// Weight scales the process's SM share under the partitioning
	// policy (weighted max-min; 0 means 1 — the paper's even split).
	Weight int
	// Priority raises the process above others; its demand is satisfied
	// fully before lower priorities see SMs. The periodic real-time task
	// always outranks every process.
	Priority int
}

// Options configures a simulation.
type Options struct {
	Config gpu.Config
	// Policy executes preemption requests; nil means no preemptive
	// multitasking is available, and FCFS runs kernels one at a time,
	// whole-GPU, in launch order (§4.4).
	Policy Policy
	// Constraint is the preemption latency bound attached to every
	// request.
	Constraint units.Cycles
	// Headroom tightens the bound the policy *plans* against without
	// changing the deadline requests are *judged* against: plans target
	// Constraint−Headroom so small estimation errors still land inside
	// the constraint — the mitigation §4.1 suggests for Chimera's
	// residual drain-misestimation misses.
	Headroom units.Cycles
	// Seed drives all stochastic choices (per-block CPI samples).
	Seed uint64
	// WarmStats seeds each kernel's measured statistics with one
	// synthetic completed thread block at the kernel's mean timing. The
	// paper's runs restart benchmarks until a billion instructions, so
	// its measurements are of steady state; without warm statistics a
	// long-block kernel whose blocks are preempted before ever
	// completing would keep the estimator on its conservative maximum
	// forever — a cold-start artifact, not a phenomenon the paper
	// evaluates. Leave false to study the cold-start behaviour itself.
	WarmStats bool
	// EstimateWindow is the window of the per-kernel running estimate
	// preemption planning consumes (§3.2): the engine feeds it every
	// per-TB completion and applies it at every preemption decision.
	// Zero averages every completed block — the paper's measured
	// statistics, with WarmStats the Table-2 oracle; predict.DefaultK
	// freezes it after that many blocks — the online predictor
	// (predict.ForName maps a spec's estimator name to its window).
	EstimateWindow int64
	// Tracer, when set, receives the simulation's observable events
	// (launches, requests, per-block preemptions, handovers, deadline
	// outcomes). The event schema is documented in docs/observability.md.
	Tracer trace.Recorder
	// Metrics, when set, receives latency histograms (preemption
	// latency per technique, deadline slack, SM idle gaps) and
	// scheduler counters. Nil disables collection at zero cost.
	Metrics *metrics.Registry
	// ContentionBeta enables the memory-bandwidth contention extension
	// (contention.go): context save/restore traffic slows running
	// blocks by 1 + beta×streams/NumSMs. Zero reproduces the paper's
	// own methodology, which ignores the effect and is "rather
	// optimistic" for context switching (§4).
	ContentionBeta float64
	// WatchdogK, when > 0, arms a per-request watchdog: a preemption
	// request still incomplete k× its estimated latency after issue has
	// its in-flight SM handovers escalated to stronger techniques —
	// draining blocks are flushed when legal, context-switched
	// otherwise (the drain→flush→switch ladder, applied reactively).
	// Each escalation increments the preempt/escalations counter and
	// emits a trace.Escalate event. Zero disables the watchdog,
	// reproducing the paper's (fault-free) behaviour exactly.
	WatchdogK float64
	// FaultStall, when set, is consulted once per preemption request
	// with the request's index and its estimated latency; a non-zero
	// return holds every selected SM's handover open for that many
	// extra cycles — an injected technique stall (internal/faults),
	// the hang the watchdog exists to detect. Nil injects nothing.
	FaultStall func(reqIndex int, estimate units.Cycles) units.Cycles
}

// Simulation is one configured simulation run.
type Simulation struct {
	cfg  gpu.Config
	opts Options
	q    eventq.Queue

	sms  []*smUnit
	free []*smUnit

	processes []*process
	active    []*kernelInstance
	// serial marks a run under FCFS, whose kernels queue in serialQ.
	serial  bool
	serialQ []*kernelInstance

	estByLabel map[string]*predict.Running
	requests   []*RequestRecord
	periodic   *periodicTask

	nextKID gpu.KernelID
	arrival int
	rnd     *rng.Source

	rebalancing    bool
	rebalanceAgain bool
	started        bool
	// forked marks a simulation built by Warmup.Fork, which resumes
	// where its warm-up paused instead of starting at cycle 0.
	forked bool

	// m holds the resolved metric handles when Options.Metrics is set.
	m *simMetrics
	// predictObs counts this run's block completions fed to the
	// estimates; RunContext adds it to the predict/observations counter
	// once, when the event loop stops (docs/performance.md, "Direct
	// emission").
	predictObs int64

	// activeTransfers counts in-flight context save/restore streams for
	// the contention model.
	activeTransfers int

	// tracing mirrors opts.Tracer != nil so hot paths can skip
	// trace.Event construction (including its fmt.Sprintf detail
	// strings) without touching opts.
	tracing bool

	// tbFree recycles threadBlock structs within this simulation. The
	// pool is per-run (never shared across simulations), so results stay
	// bit-identical and memoizable: no state crosses between jobs.
	tbFree []*threadBlock

	// Rebalance working memory, reused across passes — the kernel
	// scheduler runs on every launch, finish and SM release, so its
	// scratch must not allocate. slotGen identifies the current pass for
	// the kernelInstance slot stamps.
	slotGen       uint64
	demandScratch []sched.Demand
	curScratch    []int
	stableScratch []int
	orderScratch  []int
	// residentScratch backs smUnit.inPlacementOrder's copies. The engine
	// is single-goroutine and none of that function's callers runs while
	// another is iterating its copy, so one shared buffer suffices.
	residentScratch []*threadBlock
}

// allocTB returns a recycled (or new) thread-block struct. The
// completion closure is created once per struct and survives recycling:
// it closes over the struct pointer, which stays stable for the
// simulation's lifetime.
//
//chimera:hot
func (s *Simulation) allocTB() *threadBlock {
	if n := len(s.tbFree); n > 0 {
		tb := s.tbFree[n-1]
		s.tbFree[n-1] = nil
		s.tbFree = s.tbFree[:n-1]
		return tb
	}
	tb := &threadBlock{}                                           //chimera:allow hotalloc pool growth: one struct per high-water mark, recycled forever after
	tb.fireDone = func(now units.Cycles) { s.tbComplete(tb, now) } //chimera:allow hotalloc closure created once per pooled struct, reused across every segment
	return tb
}

// freeTB returns a terminal (completed or killed) block to the pool.
// It resets only the two fields a fresh dispatch reads before writing:
// place draws a new CPI only for a block with no progress, and restores
// only a block that needs it. nextTB, place and scheduleDone set every
// other field a running block uses, so re-zeroing the whole struct
// would only add write barriers. Callers must guarantee no pending
// event can still act on the block: its completion event is fired or
// cancelled, and any lingering save-batch callback belongs to a
// cancelled handover (a no-op before it touches blocks).
//
//chimera:hot
func (s *Simulation) freeTB(tb *threadBlock) {
	tb.executed = 0
	tb.needsRestore = false
	s.tbFree = append(s.tbFree, tb)
}

// process drives one application's launch stream and accumulates its
// throughput accounting.
type process struct {
	sim  *Simulation
	name string
	spec ProcessSpec

	idx      int
	current  *kernelInstance
	launches int

	issued int64
	wasted int64
}

func (p *process) addIssued(n int64) { p.issued += n }
func (p *process) addWasted(n int64) { p.wasted += n }

// useful is the process's credited forward progress in warp instructions.
func (p *process) useful() int64 { return p.issued - p.wasted }

// advance launches the process's next kernel, if any.
func (p *process) advance(now units.Cycles) {
	if p.current != nil && !p.current.done {
		return
	}
	p.current = nil
	if p.idx >= len(p.spec.Launches) {
		if !p.spec.Loop {
			return
		}
		p.idx = 0
	}
	l := p.spec.Launches[p.idx]
	p.idx++
	p.launches++
	p.current = p.sim.launchKernel(p, l, p.spec.Priority, now)
}

// RunsAsTable1 reports whether a Config simulates the Table 1 device:
// New runs any Config with no SMs as gpu.DefaultConfig(). Callers that
// key results by Config fold every such Config into one key with it.
func RunsAsTable1(c gpu.Config) bool {
	return c.NumSMs == 0 || c == gpu.DefaultConfig()
}

// New creates a simulation. Options.Config zero-value falls back to the
// Table 1 default.
func New(opts Options) *Simulation {
	if RunsAsTable1(opts.Config) {
		opts.Config = gpu.DefaultConfig()
	}
	if err := opts.Config.Validate(); err != nil {
		panic(err)
	}
	s := &Simulation{
		cfg:        opts.Config,
		opts:       opts,
		estByLabel: make(map[string]*predict.Running),
		rnd:        rng.New(opts.Seed ^ 0xc0ffee),
	}
	if opts.Metrics != nil {
		s.m = newSimMetrics(opts.Metrics)
	}
	s.tracing = opts.Tracer != nil
	_, s.serial = opts.Policy.(FCFS)
	for i := 0; i < s.cfg.NumSMs; i++ {
		sm := &smUnit{id: gpu.SMID(i), sim: s}
		s.sms = append(s.sms, sm)
		s.free = append(s.free, sm)
	}
	return s
}

// AddProcess registers an application. Must be called before Run.
func (s *Simulation) AddProcess(spec ProcessSpec) {
	if s.started {
		panic("engine: AddProcess after Run")
	}
	if len(spec.Launches) == 0 {
		panic("engine: process with no launches")
	}
	s.processes = append(s.processes, &process{sim: s, name: spec.Name, spec: spec})
}

// emit hands a trace event to the recorder when tracing is enabled, at
// the moment it happens.
//
//chimera:hot
func (s *Simulation) emit(e trace.Event) {
	if s.tracing {
		s.opts.Tracer.Record(e)
	}
}

// estimateFor returns the running estimate shared by every launch of
// the labelled kernel.
func (s *Simulation) estimateFor(label string) *predict.Running {
	est, ok := s.estByLabel[label]
	if !ok {
		est = &predict.Running{Window: s.opts.EstimateWindow}
		s.estByLabel[label] = est
	}
	return est
}

// launchKernel creates and activates a kernel instance.
func (s *Simulation) launchKernel(p *process, l LaunchSpec, priority int, now units.Cycles) *kernelInstance {
	if l.Grid <= 0 {
		panic(fmt.Sprintf("engine: %s: launch with grid %d", l.Params.Label, l.Grid))
	}
	k := &kernelInstance{
		id:          s.nextKID,
		params:      l.Params,
		process:     p,
		grid:        l.Grid,
		launchedAt:  now,
		priority:    priority,
		arrival:     s.arrival,
		outstanding: l.Grid,
		smSet:       make([]*smUnit, s.cfg.NumSMs),
		est:         s.estimateFor(l.Params.Label),
		rng:         s.rnd.Split(),
		cpiMu:       rng.LogNormalMu(l.Params.BaseCPI, l.Params.CPISigma),
		breachInst:  l.Params.BreachInst(),
	}
	s.nextKID++
	s.arrival++
	if s.opts.WarmStats && k.est.Estimate().Observations == 0 {
		k.est.Observe(l.Params.InstsPerTB, l.Params.TBExecCycles())
	}
	s.active = append(s.active, k)
	if s.serial {
		s.serialQ = append(s.serialQ, k)
	}
	if s.tracing {
		s.emit(trace.Event{At: now, Kind: trace.KernelLaunch, Kernel: k.params.Label, SM: -1, TB: -1,
			Detail: fmt.Sprintf("grid=%d", l.Grid)})
	}
	s.rebalance(now)
	return k
}

// flushLegal reports whether a block may be flushed right now under the
// active policy's idempotence condition.
func (s *Simulation) flushLegal(tb *threadBlock, now units.Cycles) bool {
	if s.opts.Policy != nil && !s.opts.Policy.Relaxed() {
		return tb.kernel.params.StrictIdempotent
	}
	return !tb.breachedAt(now)
}

// tbComplete handles a thread block finishing.
//
//chimera:hot
func (s *Simulation) tbComplete(tb *threadBlock, now units.Cycles) {
	k := tb.kernel
	sm := tb.sm
	tb.sync(now)
	tb.phase = tbDone
	tb.doneEv = eventq.Handle{}
	k.est.Observe(tb.insts, tb.runCycles)
	s.predictObs++
	sm.removeResident(tb, now)
	tb.sm = nil
	k.outstanding--
	wasDraining := tb.draining
	s.freeTB(tb)

	if wasDraining {
		sm.drainedComplete(now)
	}
	if k.outstanding == 0 {
		s.kernelFinished(k, now)
		return
	}
	if !wasDraining && sm.handover == nil && sm.kernel == k {
		sm.fill(now)
	}
}

// kernelFinished retires a completed kernel, frees its SMs and lets its
// process launch the next one.
func (s *Simulation) kernelFinished(k *kernelInstance, now units.Cycles) {
	k.done = true
	k.finishedAt = now
	if len(k.pendingQ) != 0 {
		panic(fmt.Sprintf("engine: %s done with %d queued blocks", k.params.Label, len(k.pendingQ)))
	}
	// Free in SMID order: the free list's order decides which physical
	// SM a later kernel lands on. smSet's index order gives that
	// determinism by construction.
	for _, sm := range k.smSet {
		if sm == nil {
			continue
		}
		if sm.handover != nil && len(sm.resident) == 0 {
			// The kernel has nothing left to run here, but an injected
			// stall is still holding the handover open. The SM stays
			// hostage — owned by the finished victim, in k.sms — until
			// the stall expires or the watchdog escalates, when the
			// handover transfers it straight to the requester.
			continue
		}
		if sm.handover != nil || len(sm.resident) != 0 {
			panic(fmt.Sprintf("engine: %s done with busy SM%d", k.params.Label, sm.id))
		}
		sm.kernel = nil
		sm.restoreTail = 0
		s.free = append(s.free, sm)
		k.removeSM(sm)
	}
	s.emit(trace.Event{At: now, Kind: trace.KernelFinish, Kernel: k.params.Label, SM: -1, TB: -1,
		Dur: now - k.launchedAt})
	s.removeActive(k)
	if k.process != nil {
		k.process.advance(now)
	}
	s.rebalance(now)
}

// killKernel aborts a kernel (missed real-time deadline): running blocks
// stop, its SMs free, in-flight handovers destined to it cancel.
func (s *Simulation) killKernel(k *kernelInstance, now units.Cycles) {
	k.done = true
	k.finishedAt = now
	// SMID order, for the same free-list determinism as kernelFinished.
	for _, sm := range k.smSet {
		if sm == nil {
			continue
		}
		recyclable := sm.handover == nil // frozen-batch callbacks may still hold blocks
		// Newest first: the placement order, walked backwards.
		blocks := sm.inPlacementOrder()
		for i := len(blocks) - 1; i >= 0; i-- {
			tb := blocks[i]
			tb.sync(now)
			tb.cancelDone(&s.q)
			tb.phase = tbDone
			sm.removeResident(tb, now)
			tb.sm = nil
			if recyclable {
				s.freeTB(tb)
			}
		}
		sm.kernel = nil
		sm.restoreTail = 0
		s.free = append(s.free, sm)
	}
	clear(k.smSet)
	k.nsms = 0
	for _, tb := range k.pendingQ {
		s.freeTB(tb)
	}
	k.pendingQ = nil
	s.emit(trace.Event{At: now, Kind: trace.KernelKill, Kernel: k.params.Label, SM: -1, TB: -1,
		Dur: now - k.launchedAt})
	// Abort preemptions still working on this kernel's behalf.
	for _, sm := range s.sms {
		if sm.handover != nil && sm.handover.req.requester == k {
			sm.cancelHandover(now)
		}
	}
	s.removeActive(k)
	s.rebalance(now)
}

func (s *Simulation) removeActive(k *kernelInstance) {
	for i, a := range s.active {
		if a == k {
			s.active = append(s.active[:i], s.active[i+1:]...)
			return
		}
	}
}

// releaseSM returns an SM whose kernel has nothing left to run on it.
func (s *Simulation) releaseSM(sm *smUnit, now units.Cycles) {
	if sm.kernel != nil {
		sm.kernel.removeSM(sm)
		sm.kernel = nil
	}
	sm.restoreTail = 0
	s.free = append(s.free, sm)
	s.rebalance(now)
}

// assignSM hands an SM to a kernel and starts dispatching.
func (s *Simulation) assignSM(sm *smUnit, k *kernelInstance, now units.Cycles) {
	sm.kernel = k
	sm.restoreTail = 0
	k.addSM(sm)
	sm.fill(now)
}

// freeSM puts an SM into the free pool and rebalances.
func (s *Simulation) freeSM(sm *smUnit, now units.Cycles) {
	sm.kernel = nil
	sm.restoreTail = 0
	s.free = append(s.free, sm)
	s.rebalance(now)
}

// popFree removes and returns one free SM (nil when none).
//
//chimera:hot
func (s *Simulation) popFree() *smUnit {
	n := len(s.free)
	if n == 0 {
		return nil
	}
	sm := s.free[n-1]
	s.free = s.free[:n-1]
	return sm
}

// rebalance recomputes the SM-to-kernel mapping and issues any needed
// preemption requests. Re-entrant calls (triggered by synchronous
// handovers inside the rebalance itself) coalesce into another pass.
//
//chimera:hot
func (s *Simulation) rebalance(now units.Cycles) {
	if s.rebalancing {
		s.rebalanceAgain = true
		return
	}
	s.rebalancing = true
	if s.m != nil {
		s.m.rebalances.Add(1)
	}
	for iter := 0; ; iter++ {
		if iter > 1000 {
			s.dumpState(now)
			panic("engine: rebalance did not converge")
		}
		s.rebalanceAgain = false
		s.rebalanceOnce(now)
		if !s.rebalanceAgain {
			break
		}
	}
	s.rebalancing = false
}

//chimera:hot
func (s *Simulation) rebalanceOnce(now units.Cycles) {
	if s.serial {
		s.rebalanceSerial(now)
		return
	}
	if len(s.active) == 0 {
		return
	}
	// SM partitioning policy (orthogonal to preemption, §3.1). The
	// scheduler's working memory (demands, holdings, order) lives in
	// reusable scratch buffers: a rebalance fires on every launch,
	// finish and SM release, so this path must not allocate.
	n := len(s.active)
	if cap(s.demandScratch) < n {
		s.demandScratch = make([]sched.Demand, n)
	}
	demands := s.demandScratch[:n]
	for i, k := range s.active {
		weight := 0
		if k.process != nil {
			weight = k.process.spec.Weight
		}
		demands[i] = sched.Demand{Key: i, Want: k.wantSMs(), Priority: k.priority, Arrival: k.arrival, Weight: weight}
	}
	targets := sched.Partition(s.cfg.NumSMs, demands)

	// Current effective holdings: stably owned SMs plus incoming
	// handovers; SMs being handed away no longer count for the victim.
	// Kernels are located by a generation-stamped slot instead of a
	// per-pass map.
	s.slotGen++
	for i, k := range s.active {
		k.slot, k.slotGen = i, s.slotGen
	}
	if cap(s.curScratch) < n {
		s.curScratch = make([]int, n)
		s.stableScratch = make([]int, n)
		s.orderScratch = make([]int, n)
	}
	cur := s.curScratch[:n]
	stable := s.stableScratch[:n]
	clear(cur)
	clear(stable)
	for _, sm := range s.sms {
		if sm.kernel == nil {
			continue
		}
		if sm.handover == nil {
			if k := sm.kernel; k.slotGen == s.slotGen {
				cur[k.slot]++
				stable[k.slot]++
			}
			continue
		}
		if to := sm.handover.req.requester; to != nil && to.slotGen == s.slotGen {
			cur[to.slot]++
		}
	}

	order := s.orderScratch[:n]
	for i := range order {
		order[i] = i
	}
	// Stable insertion sort (priority desc, arrival asc): n is the
	// number of active kernels — a handful — and this avoids the
	// closure/interface allocations of sort.SliceStable.
	for i := 1; i < n; i++ {
		for j := i; j > 0; j-- {
			ka, kb := s.active[order[j]], s.active[order[j-1]]
			if ka.priority < kb.priority || (ka.priority == kb.priority && ka.arrival >= kb.arrival) {
				break
			}
			order[j], order[j-1] = order[j-1], order[j]
		}
	}

	// Phase 1: hand out free SMs.
	for _, i := range order {
		for cur[i] < targets[i] {
			sm := s.popFree()
			if sm == nil {
				break
			}
			cur[i]++
			stable[i]++
			s.assignSM(sm, s.active[i], now)
		}
	}

	// Phase 2: preempt surpluses for remaining deficits.
	for _, i := range order {
		need := targets[i] - cur[i]
		if need <= 0 {
			continue
		}
		for _, v := range order {
			if need == 0 {
				break
			}
			if v == i {
				continue
			}
			surplus := cur[v] - targets[v]
			if surplus > stable[v] {
				surplus = stable[v]
			}
			if surplus <= 0 {
				continue
			}
			n := need
			if n > surplus {
				n = surplus
			}
			issued := s.issuePreemption(s.active[i], s.active[v], n, now)
			cur[v] -= issued
			stable[v] -= issued
			cur[i] += issued
			need -= issued
		}
	}
}

// rebalanceSerial implements the non-preemptive FCFS baseline: the
// oldest unfinished kernel owns the machine alone.
func (s *Simulation) rebalanceSerial(now units.Cycles) {
	for len(s.serialQ) > 0 && s.serialQ[0].done {
		s.serialQ = s.serialQ[1:]
	}
	if len(s.serialQ) == 0 {
		return
	}
	head := s.serialQ[0]
	for head.nsms < head.wantSMs() {
		sm := s.popFree()
		if sm == nil {
			return
		}
		s.assignSM(sm, head, now)
	}
}

// issuePreemption asks the policy for plans taking n SMs from victim on
// behalf of requester, then executes them. It returns the number of SMs
// actually put into handover.
func (s *Simulation) issuePreemption(requester, victim *kernelInstance, n int, now units.Cycles) int {
	if s.opts.Policy == nil {
		return 0
	}
	var in core.Input
	for _, sm := range victim.smSet {
		if sm == nil || sm.handover != nil {
			continue
		}
		in.SMs = append(in.SMs, sm.snapshot(now))
	}
	if len(in.SMs) == 0 {
		return 0
	}
	in.Est = victim.estimate(s.cfg)
	planningBound := s.opts.Constraint
	if s.opts.Headroom < planningBound {
		planningBound -= s.opts.Headroom
	}
	req := core.Request{
		ConstraintCycles: float64(planningBound),
		NumPreempts:      n,
	}
	sel := s.opts.Policy.Select(req, in)
	if s.m != nil {
		// An SM the policy was offered but declined to take (deadline-
		// aware policies shed demand they cannot serve in time).
		offered := len(in.SMs)
		if n < offered {
			offered = n
		}
		if shed := offered - len(sel.Plans); shed > 0 {
			s.m.policySheds.Add(int64(shed))
		}
	}
	if len(sel.Plans) == 0 {
		return 0
	}
	rec := &RequestRecord{
		At:         now,
		Constraint: s.opts.Constraint,
		Victim:     victim.params.Label,
		Requester:  requester.params.Label,
		NumSMs:     len(sel.Plans),
		Forced:     sel.Forced,
		requester:  requester,
	}
	for _, p := range sel.Plans {
		if p.LatencyCycles > rec.EstLatencyCycles {
			rec.EstLatencyCycles = p.LatencyCycles
		}
	}
	s.requests = append(s.requests, rec)
	s.observeRequestIssued(rec)
	estLat := units.Cycles(0)
	if rec.EstLatencyCycles > 0 && rec.EstLatencyCycles < preempt.Infeasible {
		estLat = units.Cycles(rec.EstLatencyCycles)
	}
	if s.tracing {
		s.emit(trace.Event{At: now, Kind: trace.Request, Kernel: victim.params.Label, SM: -1, TB: -1,
			Other: requester.params.Label, EstLat: estLat,
			Detail: fmt.Sprintf("sms=%d forced=%d", rec.NumSMs, rec.Forced)})
	}
	var stall units.Cycles
	if f := s.opts.FaultStall; f != nil && estLat > 0 {
		stall = f(len(s.requests)-1, estLat)
		if stall > 0 {
			if s.m != nil {
				s.m.stallsInjected.Add(1)
			}
			s.emit(trace.Event{At: now, Kind: trace.Stall, Kernel: victim.params.Label, SM: -1, TB: -1,
				Other: requester.params.Label, Dur: stall})
		}
	}
	for _, plan := range sel.Plans {
		s.sms[int(plan.SM)].executePlan(plan, rec, stall, now)
	}
	if k := s.opts.WatchdogK; k > 0 && estLat > 0 && !rec.Completed {
		s.q.Schedule(now+cyclesCeil(k*float64(estLat)), func(at units.Cycles) { s.watchdogCheck(rec, at) })
	}
	return len(sel.Plans)
}

// watchdogCheck fires WatchdogK× the estimated latency after a request
// was issued. A request still incomplete at that point has outlived
// what Chimera believed when selecting its techniques — whether from an
// injected stall or a genuinely misestimated drain — so every SM still
// working on it escalates to stronger techniques.
func (s *Simulation) watchdogCheck(rec *RequestRecord, now units.Cycles) {
	if rec.Completed || rec.Killed {
		return
	}
	escalated := false
	for _, sm := range s.sms {
		if sm.handover != nil && sm.handover.req == rec && sm.escalate(now) {
			escalated = true
		}
	}
	if !escalated {
		return
	}
	rec.Escalations++
	if s.m != nil {
		s.m.escalations.Add(1)
	}
	if s.tracing {
		s.emit(trace.Event{At: now, Kind: trace.Escalate, Kernel: rec.Victim, SM: -1, TB: -1,
			Other: rec.Requester, Lat: now - rec.At,
			Detail: fmt.Sprintf("k=%g", s.opts.WatchdogK)})
	}
}

// Run starts every process at cycle 0 and executes events until the
// window closes; a fork (Warmup.Fork) resumes where its warm-up paused
// instead. It may be called once.
func (s *Simulation) Run(window units.Cycles) {
	_ = s.RunContext(context.Background(), window)
}

// RunContext is Run with cooperative cancellation: the engine polls
// ctx.Done() at event-pop granularity, so an abandoned run stops within
// one event of the cancellation. A cancelled run returns ctx.Err(),
// clears every pending event (the queue is verifiably empty afterwards —
// see Pending) and skips the end-of-window accounting: its partial
// metrics must not be read as a full window's. The engine runs entirely
// on the calling goroutine, so cancellation leaks nothing. Each
// cancellation increments the sim/canceled_runs counter when
// Options.Metrics is set. It may be called once.
func (s *Simulation) RunContext(ctx context.Context, window units.Cycles) error {
	if s.started {
		panic("engine: Run called twice")
	}
	s.started = true
	if !s.forked {
		s.launch()
	} else if window < s.q.Now() {
		panic(fmt.Sprintf("engine: fork run to %v, before its warm-up's end at %v", window, s.q.Now()))
	}
	if err := s.runUntil(ctx, window); err != nil {
		return err
	}
	// Commit in-flight block progress so throughput accounting covers
	// the whole window, and finalize the periodic task's records.
	for _, sm := range s.sms {
		for _, tb := range sm.resident {
			tb.sync(window)
		}
	}
	if s.periodic != nil {
		s.periodic.finalize(window)
	}
	return nil
}

// launch starts every process at cycle 0 and arms the periodic task.
func (s *Simulation) launch() {
	for _, p := range s.processes {
		p.advance(0)
	}
	if s.periodic != nil {
		s.periodic.arm()
	}
}

// runUntil executes events up to cycle limit and adds this run's block
// completions to the predict/observations counter. A cancelled run
// clears every pending event, counts itself in sim/canceled_runs and
// returns ctx.Err().
func (s *Simulation) runUntil(ctx context.Context, limit units.Cycles) error {
	_, cancelled := s.q.RunUntilDone(limit, ctx.Done())
	if s.m != nil && s.predictObs > 0 {
		s.m.predictObs.Add(s.predictObs)
	}
	if cancelled {
		s.q.Clear()
		if s.m != nil {
			s.m.canceled.Add(1)
		}
		return ctx.Err()
	}
	return nil
}

// Pending reports how many simulation events are still queued. After a
// cancelled RunContext it is zero — the cancellation cleanup guarantee
// the server's leak tests pin down.
func (s *Simulation) Pending() int { return s.q.Len() }

// Now returns the current simulation time.
func (s *Simulation) Now() units.Cycles { return s.q.Now() }

// Requests returns every preemption request issued, in order.
func (s *Simulation) Requests() []*RequestRecord { return s.requests }

// usefulAt returns a process's credited instructions including the
// in-flight progress of its running thread blocks up to cycle now —
// committed counters alone lag by up to one block execution, which
// would distort per-period throughput metering for long-block kernels.
func (s *Simulation) usefulAt(p *process, now units.Cycles) int64 {
	total := p.useful()
	for _, sm := range s.sms {
		if sm.kernel == nil || sm.kernel.process != p {
			continue
		}
		for _, tb := range sm.resident {
			total += tb.executedAt(now) - tb.executed
		}
	}
	return total
}

// ProcessUseful returns a process's credited instructions (issued minus
// flush-wasted).
func (s *Simulation) ProcessUseful(name string) int64 {
	for _, p := range s.processes {
		if p.name == name {
			return p.useful()
		}
	}
	return 0
}

// ProcessIssued returns a process's raw issued instructions.
func (s *Simulation) ProcessIssued(name string) int64 {
	for _, p := range s.processes {
		if p.name == name {
			return p.issued
		}
	}
	return 0
}

// ProcessWasted returns a process's flush-discarded instructions.
func (s *Simulation) ProcessWasted(name string) int64 {
	for _, p := range s.processes {
		if p.name == name {
			return p.wasted
		}
	}
	return 0
}

// Config returns the device configuration in use.
func (s *Simulation) Config() gpu.Config { return s.cfg }

// dumpState prints scheduler state for convergence diagnostics.
func (s *Simulation) dumpState(now units.Cycles) {
	fmt.Printf("=== rebalance stuck at %v ===\n", now)
	for _, k := range s.active {
		fmt.Printf("kernel %s id=%d prio=%d grid=%d fresh=%d pending=%d outstanding=%d sms=%d want=%d\n",
			k.params.Label, k.id, k.priority, k.grid, k.nextFresh, len(k.pendingQ), k.outstanding, k.nsms, k.wantSMs())
	}
	fmt.Printf("free=%d\n", len(s.free))
	for _, sm := range s.sms {
		owner := "-"
		if sm.kernel != nil {
			owner = sm.kernel.params.Label
		}
		ho := ""
		if sm.handover != nil {
			ho = " HANDOVER"
			if sm.handover.req.requester != nil {
				ho += "->" + sm.handover.req.requester.params.Label
			}
		}
		fmt.Printf("  SM%d owner=%s resident=%d%s\n", sm.id, owner, len(sm.resident), ho)
	}
}

// SMBusyFraction returns the mean fraction of the run's SM-time during
// which SMs had at least one resident thread block — the spatial
// utilization diagnostic (LUD's size-bound launches leave most of the
// machine idle under FCFS, which is what the §4.4 STP gains reclaim).
// Call after Run; window is the run's duration.
func (s *Simulation) SMBusyFraction(window units.Cycles) float64 {
	if window == 0 {
		return 0
	}
	var busy units.Cycles
	for _, sm := range s.sms {
		busy += sm.busyAt(window)
	}
	return float64(busy) / (float64(window) * float64(s.cfg.NumSMs))
}
