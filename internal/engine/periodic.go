package engine

import (
	"fmt"

	"chimera/internal/eventq"
	"chimera/internal/gpu"
	"chimera/internal/trace"
	"chimera/internal/units"
)

// PeriodicSpec describes the synthetic periodic real-time task of §4.1:
// launched every Period, needing SMs streaming multiprocessors for Exec
// time, with a deadline of Exec plus the preemption latency constraint.
// The task is killed when it misses its deadline — equivalently, when
// not all of its SMs were acquired within the constraint.
type PeriodicSpec struct {
	Period units.Cycles
	Exec   units.Cycles
	SMs    int
	// Label names the task's kernel in request records.
	Label string
}

// PeriodRecord is the measured outcome of one task instance.
type PeriodRecord struct {
	// At is the instance's launch (and preemption request) cycle.
	At units.Cycles
	// Violated reports that not every SM was acquired within the
	// constraint — the instance missed its deadline and was killed.
	Violated bool
	// AcquireLatency is the time until the last SM arrived (only
	// meaningful when the instance was not killed first).
	AcquireLatency units.Cycles
	// BenchUseful is the background benchmark's credited instructions
	// during this period (filled when the next period begins).
	BenchUseful int64
}

// rtPriority is the periodic task's scheduling priority: above any
// process priority a caller can reasonably use.
const rtPriority = 1 << 30

// periodicTask drives the real-time task and records per-period results.
type periodicTask struct {
	sim  *Simulation
	spec PeriodicSpec
	proc *process // owns the RT kernels' accounting, separate from the benchmark
	// bench is the background process whose throughput each period meters.
	bench *process

	params  gpu.KernelParams
	records []PeriodRecord

	current   *kernelInstance
	usefulAt0 int64
	// next is the pending arrival of the next instance, which WarmUp
	// finds among the pending events so that forks can re-arm it.
	next eventq.Handle
}

// AddPeriodicTask registers the §4.1 real-time task. The background
// process must already be registered; its per-period throughput is
// metered against the task's deadlines. Must be called before Run.
func (s *Simulation) AddPeriodicTask(spec PeriodicSpec) {
	if s.started {
		panic("engine: AddPeriodicTask after Run")
	}
	if s.periodic != nil {
		panic("engine: multiple periodic tasks")
	}
	if len(s.processes) == 0 {
		panic("engine: periodic task needs a background process")
	}
	if spec.SMs <= 0 || spec.SMs > s.cfg.NumSMs {
		panic("engine: periodic task SM count out of range")
	}
	if spec.Label == "" {
		spec.Label = "RT"
	}
	insts := int64(spec.Exec) // one instruction per cycle: CPI 1
	if insts <= 0 {
		panic("engine: periodic task with zero execution time")
	}
	t := &periodicTask{
		sim:   s,
		spec:  spec,
		bench: s.processes[0],
		params: gpu.KernelParams{
			Label:             spec.Label,
			Benchmark:         spec.Label,
			Name:              spec.Label,
			InstsPerTB:        insts,
			BaseCPI:           1,
			CPISigma:          0,
			TBsPerSM:          1,
			ContextBytesPerTB: units.KB,
			GridSize:          spec.SMs,
			StrictIdempotent:  true,
			BreachFraction:    1,
		},
	}
	t.proc = &process{sim: s, name: spec.Label}
	s.periodic = t
}

// arm schedules the first instance one period into the run, giving the
// background benchmark a warm-up interval.
func (t *periodicTask) arm() {
	t.next = t.sim.q.Schedule(t.spec.Period, t.fire)
}

// fire launches one task instance: it closes the previous period's
// throughput meter, launches the RT kernel at high priority (triggering
// the preemption request through the kernel scheduler), and arms the
// deadline check.
func (t *periodicTask) fire(now units.Cycles) {
	t.closePeriod(now)
	t.records = append(t.records, PeriodRecord{At: now})
	t.usefulAt0 = t.sim.usefulAt(t.bench, now)

	k := t.sim.launchKernel(t.proc, LaunchSpec{Params: t.params, Grid: t.spec.SMs}, rtPriority, now)
	t.current = k
	idx := len(t.records) - 1
	t.sim.q.Schedule(now+t.sim.opts.Constraint, func(at units.Cycles) {
		t.deadlineCheck(k, idx, at)
	})
	t.next = t.sim.q.Schedule(now+t.spec.Period, t.fire)
}

// deadlineCheck runs at launch+constraint: if any of the task's SMs has
// not arrived, the instance can no longer meet its deadline (it needs
// Exec more time than remains) and is killed.
func (t *periodicTask) deadlineCheck(k *kernelInstance, idx int, now units.Cycles) {
	if k.done {
		return // already killed or (impossibly fast) finished
	}
	rec := &t.records[idx]
	if k.nsms >= t.spec.SMs {
		rec.AcquireLatency = t.acquireLatency(k, now)
		t.sim.observeDeadline(true, t.sim.opts.Constraint-rec.AcquireLatency)
		return
	}
	rec.Violated = true
	t.sim.observeDeadline(false, 0)
	t.sim.emit(trace.Event{At: now, Kind: trace.DeadlineMiss, Kernel: t.spec.Label, SM: -1, TB: -1,
		Detail: fmt.Sprintf("acquired=%d/%d", k.nsms, t.spec.SMs)})
	t.sim.killKernel(k, now)
}

// acquireLatency computes how long the instance waited for its last SM:
// the latest block start among its (immediately dispatched) blocks.
func (t *periodicTask) acquireLatency(k *kernelInstance, now units.Cycles) units.Cycles {
	var last units.Cycles
	for _, sm := range k.smSet {
		if sm == nil {
			continue
		}
		for _, tb := range sm.resident {
			if tb.startAt > last {
				last = tb.startAt
			}
		}
	}
	if last < k.launchedAt {
		last = k.launchedAt
	}
	return last - k.launchedAt
}

// closePeriod finalizes the previous period's benchmark throughput.
func (t *periodicTask) closePeriod(now units.Cycles) {
	if len(t.records) == 0 {
		return
	}
	rec := &t.records[len(t.records)-1]
	rec.BenchUseful = t.sim.usefulAt(t.bench, now) - t.usefulAt0
}

// finalize closes the last open period at the end of the run window and
// drops trailing instances whose deadline check falls beyond the window
// (they were never evaluated).
func (t *periodicTask) finalize(window units.Cycles) {
	t.closePeriod(window)
	for len(t.records) > 0 {
		last := t.records[len(t.records)-1]
		if last.At+t.sim.opts.Constraint <= window {
			break
		}
		t.records = t.records[:len(t.records)-1]
	}
}

// PeriodRecords returns the periodic task's per-instance outcomes
// (instances whose period completed within the run window).
func (s *Simulation) PeriodRecords() []PeriodRecord {
	if s.periodic == nil {
		return nil
	}
	return s.periodic.records
}
