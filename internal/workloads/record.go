package workloads

import (
	"context"

	"chimera/internal/jobspec"
	"chimera/internal/metrics"
	"chimera/internal/simjob"
	"chimera/internal/trace"
	"chimera/internal/units"
)

// RecordOptions configures one directly-executed (never cached)
// contention scenario whose full event stream is kept: the §4.1 setup of
// a looping background benchmark preempted by the periodic real-time
// task, under the Chimera policy at the default 15 µs constraint. Zero
// values select the canonical recording: SAD for 5 ms with seed 1.
type RecordOptions struct {
	// Bench is the background benchmark's catalog name (default "SAD").
	Bench string
	// Window is the simulated duration (default 5 ms).
	Window units.Cycles
	// Seed drives the deterministic RNG (default 1).
	Seed uint64
	// Metrics, when set, additionally collects the engine's histograms
	// and counters into the given registry.
	Metrics *metrics.Registry
}

// Recording is the outcome of one recorded run: the complete ordered
// event stream plus headline counts for a one-line summary.
type Recording struct {
	// Events is every event the run emitted, in nondecreasing At order.
	Events []trace.Event
	// Periods and Violations count evaluated real-time task instances
	// and their deadline misses.
	Periods    int
	Violations int
	// Requests counts preemption requests issued.
	Requests int
	// Window is the simulated duration actually used.
	Window units.Cycles
	// Bench is the background benchmark actually used.
	Bench string
}

// Record executes the scenario opts describes with full tracing, as the
// periodic spec it is, and returns the recording. A cancelled ctx aborts
// the simulation within one event and returns ctx's error (no partial
// Recording is produced).
func Record(ctx context.Context, opts RecordOptions) (*Recording, error) {
	if opts.Bench == "" {
		opts.Bench = "SAD"
	}
	if opts.Window == 0 {
		opts.Window = units.FromMicroseconds(5000)
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	r := NewEnv(nil)
	r.Metrics = opts.Metrics
	spec := jobspec.Periodic(opts.Bench, "").WithWindowUs(opts.Window.Microseconds()).WithSeed(opts.Seed)
	res, events, err := NewExecutor(r).Record(ctx, spec)
	if err != nil {
		return nil, err
	}
	return &Recording{Events: events, Periods: res.Trace.Periods, Violations: res.Trace.Violations,
		Requests: res.Trace.Requests, Window: opts.Window, Bench: opts.Bench}, nil
}

// Record executes one periodic spec with its full event stream kept, on
// the per-spec Runner Run would use, so the recording is of exactly the
// simulation the untraced spec computes. It returns the spec's result,
// which carries only the Trace summary, and the recorded events. A trace
// is a side effect the result cache cannot replay, so Record always
// simulates.
func (e *Executor) Record(ctx context.Context, spec jobspec.Spec) (SpecResult, []trace.Event, error) {
	spec.Trace = true // validation then admits periodic specs only
	r, policy, err := e.prepare(&spec)
	if err != nil {
		return SpecResult{}, nil, err
	}
	col := trace.NewCollector()
	sim, err := r.simulate(ctx, simjob.KindPeriodic, []string{spec.Bench}, policy, col)
	if err != nil {
		return SpecResult{}, nil, err
	}
	info := &TraceInfo{Events: len(col.Events()), Requests: len(sim.Requests())}
	for _, p := range sim.PeriodRecords() {
		info.Periods++
		if p.Violated {
			info.Violations++
		}
	}
	return SpecResult{Kind: spec.Kind, Trace: info}, col.Events(), nil
}
