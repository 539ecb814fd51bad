// Package workloads assembles the paper's evaluation scenarios from the
// kernel catalog and the simulation engine: the periodic real-time task
// scenario of §4.1-§4.3 and the multiprogramming case study of §4.4,
// including the non-preemptive FCFS baseline and the stand-alone runs
// that normalize ANTT/STP.
//
// Executor is the one way a job runs: it takes a canonical
// jobspec.Spec, derives a per-spec Runner from its environment Runner
// (catalog, result cache, device, warm start, contention, telemetry and
// fault plumbing) and runs the spec's scenario. Every run, traced
// recordings included, builds its engine in one place
// (Runner.simulate); an untraced single-process run longer than one
// task period forks a warm-up shared through a memo beside the result
// cache (Runner.fork). ANTT and STP are N-program metrics, so a §4.4 pair
// is simply the two-process multi run: a pair spec and a multi spec of
// the same two benchmarks share one cached result.
//
// Every scenario run is routed through the environment's simjob cache:
// results are memoized by their full Job identity (benchmark, policy,
// window, constraint, seed, device config, catalog), with singleflight
// semantics, so an Executor is safe for concurrent use and the
// stand-alone baseline of a benchmark is simulated once no matter how
// many exhibits ask for it. Solo jobs are keyed and run with the
// constraint, warm statistics and contention β fixed, since none of
// them can change a one-process run (Runner.solo). Batches fan out with
// simjob.Map over the environment's pool, results in enumeration order,
// so output is byte-identical at any parallelism.
package workloads

import (
	"context"
	"fmt"

	"chimera/internal/engine"
	"chimera/internal/gpu"
	"chimera/internal/jobspec"
	"chimera/internal/kernels"
	"chimera/internal/metrics"
	"chimera/internal/preempt"
	"chimera/internal/sched/predict"
	"chimera/internal/simjob"
	"chimera/internal/trace"
	"chimera/internal/units"
)

// Launches converts a catalog benchmark into engine launch specs.
func Launches(cat *kernels.Catalog, b *kernels.Benchmark) ([]engine.LaunchSpec, error) {
	out := make([]engine.LaunchSpec, 0, len(b.Launches))
	for _, l := range b.Launches {
		spec, err := cat.Kernel(l.Label)
		if err != nil {
			return nil, err
		}
		out = append(out, engine.LaunchSpec{Params: spec.Params, Grid: l.Grid})
	}
	return out, nil
}

// Runner is the environment an Executor runs specs in. Each spec
// supplies Window, Constraint, Seed, Headroom and Estimator; the other
// fields hold for every spec. Set them before the first run; once runs
// are in flight the Runner may be shared by any number of goroutines.
type Runner struct {
	// Window is the simulated duration of each run.
	Window units.Cycles
	// Constraint is the preemption latency bound handed to every
	// request.
	Constraint units.Cycles
	// Seed drives the deterministic RNG.
	Seed uint64
	// Warm seeds kernel statistics at launch (steady-state measurement,
	// the default); clear it to study cold-start estimator behaviour.
	Warm bool
	// Contention is the memory-bandwidth contention beta forwarded to
	// the engine (0 = the paper's methodology).
	Contention float64
	// Headroom tightens the bound plans target below the judged
	// constraint (the §4.1 mitigation for estimation error).
	Headroom units.Cycles
	// Config overrides the device configuration (zero value = Table 1).
	Config gpu.Config
	// Metrics, when set, is forwarded to every engine run this Runner
	// executes. Only runs that actually execute observe into it — a
	// cache or singleflight hit replays no events, and a run forked from
	// a shared warm-up observes only what it simulates after it, the
	// warm-up having been observed once, by the run that simulated it —
	// so treat it as live engine telemetry, not as a per-result record
	// (PeriodicResult's Outcomes carry the cache-safe form).
	Metrics *metrics.Registry
	// Watchdog arms the engine's preemption watchdog: a request still
	// incomplete at Watchdog× its estimated latency has its techniques
	// escalated (engine.Options.WatchdogK; 0 = off, the paper's exact
	// behaviour).
	Watchdog float64
	// Stall, when set, injects fault-plane technique stalls into every
	// engine run (engine.Options.FaultStall). Callers running with an
	// injector should also set Variant to the fault plan's fingerprint
	// so faulted results never poison the clean result cache.
	Stall func(reqIndex int, estimate units.Cycles) units.Cycles
	// Variant discriminates cached results whose outcome depends on
	// anything beyond the simulation parameters — typically an active
	// fault plan's fingerprint. Empty for clean runs.
	Variant string
	// Estimator selects the runtime estimate preemption planning
	// consumes ("" or jobspec's "oracle" = warm-started measured
	// statistics over every completed block; "online" = the structural
	// predictor), as the window predict.ForName maps it to
	// (engine.Options.EstimateWindow). Non-default estimators fold into
	// the cache identity of preemption-bearing scenarios.
	Estimator string

	cat  *kernels.Catalog
	pool *simjob.Pool
}

// NewRunner builds a Runner over the shared Table 2 catalog. Window and
// Constraint must be positive.
func NewRunner(window, constraint units.Cycles, seed uint64) (*Runner, error) {
	return NewRunnerWith(kernels.Load(), window, constraint, seed)
}

// NewRunnerWith builds a Runner over an explicit catalog (e.g. the
// warp-level-calibrated one). The Runner starts on a GOMAXPROCS-wide
// pool over the process-shared result cache; UsePool overrides both.
func NewRunnerWith(cat *kernels.Catalog, window, constraint units.Cycles, seed uint64) (*Runner, error) {
	if cat == nil {
		return nil, fmt.Errorf("workloads: nil catalog")
	}
	if window == 0 {
		return nil, fmt.Errorf("workloads: zero window")
	}
	if constraint == 0 {
		return nil, fmt.Errorf("workloads: zero constraint")
	}
	return &Runner{
		Window:     window,
		Constraint: constraint,
		Seed:       seed,
		Warm:       true,
		cat:        cat,
		pool:       simjob.NewPool(0, nil),
	}, nil
}

// NewEnv builds the environment Runner an Executor runs specs in: the
// shared Table 2 catalog with warm-started statistics, over cache (nil
// means the process-shared cache). Every spec sets its own window,
// constraint and seed, so they stay zero here, and the pool runs one
// spec at a time (UsePool widens it for RunSpecs).
func NewEnv(cache *simjob.Cache) *Runner {
	return &Runner{Warm: true, cat: kernels.Load(), pool: simjob.NewPool(1, cache)}
}

// Catalog exposes the kernel catalog in use.
func (r *Runner) Catalog() *kernels.Catalog { return r.cat }

// UsePool replaces the Runner's job pool (and with it the result cache
// and parallelism). Call before the first run; returns r for chaining.
func (r *Runner) UsePool(p *simjob.Pool) *Runner {
	if p != nil {
		r.pool = p
	}
	return r
}

// solo returns the Runner copy every solo job is keyed and run on: the
// Runner with Constraint, Warm and Contention fixed. A solo run has one
// looping process, so it makes no preemption request, has no periodic
// task and moves no context, and none of the three can change it; fixing
// them lets one cached baseline serve every exhibit and spec that
// differs only in them.
func (r *Runner) solo() *Runner {
	s := *r
	s.Constraint = 1
	s.Warm = false
	s.Contention = 0
	return &s
}

// job builds the cache identity of one scenario run under the Runner's
// current configuration. It mirrors simulate: solo runs always execute
// under the fixed baseline options (Chimera policy, built-in estimator),
// so policy and estimator are normalized out of their key to maximize
// sharing across exhibits, and only periodic runs plan against Headroom.
// Every Config the engine runs as Table 1 keys as the zero Config, so an
// explicit Table 1 device shares the zero Config's results. The key
// keeps the zero form, not the full one, because faults.JobKey hashes
// it and chimerad's jobs carry the zero Config.
func (r *Runner) job(kind simjob.Kind, benches string, policy engine.Policy) simjob.Job {
	// An armed watchdog or stall injector changes run outcomes, so fold
	// both into the cache-key variant even when the caller forgot to set
	// one — a faulted run must never be served as a clean result.
	variant := r.Variant
	if r.Watchdog != 0 || r.Stall != nil {
		variant = fmt.Sprintf("%s|wd=%g|stall=%t", variant, r.Watchdog, r.Stall != nil)
	}
	job := simjob.Job{
		Kind:       kind,
		Benchmarks: benches,
		Window:     r.Window,
		Constraint: r.Constraint,
		Seed:       r.Seed,
		Warm:       r.Warm,
		Contention: r.Contention,
		Config:     r.Config,
		Catalog:    r.cat,
	}
	if engine.RunsAsTable1(job.Config) {
		job.Config = gpu.Config{}
	}
	if kind == simjob.KindPeriodic {
		job.Headroom = r.Headroom
	}
	// A non-default estimator changes which runtime estimates preemption
	// planning sees, so it discriminates every preemption-bearing
	// scenario's identity (jobspec.Hash folds it in for solo specs too —
	// specs split keys slightly more eagerly than Runner calls, never
	// less).
	if kind != simjob.KindSolo {
		job.Policy = jobspec.PolicyKey(policy)
		if r.Estimator != "" && r.Estimator != predict.NameOracle {
			variant = fmt.Sprintf("%s|est=%s", variant, r.Estimator)
		}
	}
	job.Variant = variant
	return job
}

// simulate is the one engine setup behind every scenario run, traced
// recordings included: it runs benches as looping processes for the
// Runner's window under its configuration and returns the finished
// simulation. Periodic runs add the §4.1 real-time task and plan
// against Headroom; preempting runs take the Runner's estimator;
// multiprogrammed processes are named by procName. An untraced
// single-process run longer than one task period continues a shared
// warm-up (fork). A cancelled ctx aborts the run within one event.
func (r *Runner) simulate(ctx context.Context, kind simjob.Kind, benches []string, policy engine.Policy, tracer trace.Recorder) (*engine.Simulation, error) {
	procs := make([]engine.ProcessSpec, len(benches))
	for i, bench := range benches {
		b, err := r.cat.Benchmark(bench)
		if err != nil {
			return nil, err
		}
		launches, err := Launches(r.cat, b)
		if err != nil {
			return nil, err
		}
		procs[i] = engine.ProcessSpec{Name: bench, Launches: launches, Loop: true}
		if kind == simjob.KindMulti {
			procs[i].Name = procName(bench, i)
		}
	}
	opts := engine.Options{
		Config:         r.Config,
		Policy:         policy,
		Constraint:     r.Constraint,
		Seed:           r.Seed,
		WarmStats:      r.Warm,
		ContentionBeta: r.Contention,
		Tracer:         tracer,
		Metrics:        r.Metrics,
		WatchdogK:      r.Watchdog,
		FaultStall:     r.Stall,
	}
	if kind == simjob.KindPeriodic {
		opts.Headroom = r.Headroom
	}
	if kind != simjob.KindSolo {
		window, err := predict.ForName(r.Estimator)
		if err != nil {
			return nil, fmt.Errorf("workloads: %w", err)
		}
		opts.EstimateWindow = window
	}
	if tracer == nil && len(procs) == 1 && r.Window > taskPeriod {
		return r.fork(ctx, kind == simjob.KindSolo, procs[0], opts)
	}
	sim := engine.New(opts)
	for _, p := range procs {
		sim.AddProcess(p)
	}
	if kind == simjob.KindPeriodic {
		sim.AddPeriodicTask(PeriodicSpec(sim.Config().NumSMs))
	}
	if err := sim.RunContext(ctx, r.Window); err != nil {
		return nil, err
	}
	return sim, nil
}

// fork runs a single-process scenario as a fork of the warm-up its
// benchmark shares with every other single-process run on this device,
// seed and catalog: the run up to the §4.1 task's first instance, which
// no policy, constraint, headroom, contention β, watchdog or stall can
// change (engine.Warmup). The warm-up comes from the memo beside the
// result cache, simulated on first use; a periodic run forks the
// warm-up of its own warm start and estimate window. A solo run never
// reads an estimate, so it forks the warm, oracle warm-up with the task
// dropped.
func (r *Runner) fork(ctx context.Context, solo bool, proc engine.ProcessSpec, opts engine.Options) (*engine.Simulation, error) {
	warm := engine.Options{Config: opts.Config, Seed: opts.Seed, WarmStats: opts.WarmStats, EstimateWindow: opts.EstimateWindow, Metrics: opts.Metrics}
	if solo {
		warm.WarmStats, warm.EstimateWindow = true, 0
	}
	key := simjob.Job{
		Kind:       simjob.KindPeriodic,
		Benchmarks: proc.Name,
		Seed:       warm.Seed,
		Warm:       warm.WarmStats,
		Config:     warm.Config,
		Catalog:    r.cat,
		Variant:    fmt.Sprintf("warm-up|est-window=%d", warm.EstimateWindow),
	}
	if engine.RunsAsTable1(key.Config) {
		key.Config = gpu.Config{}
	}
	// One warm-up per catalog benchmark, since the exhibits cycle through
	// all of them, plus one for each run the pool has in flight.
	memo := r.pool.Cache().Side(len(r.cat.Benchmarks()) + r.pool.Width())
	v, err := memo.DoContext(ctx, key, func(ctx context.Context) (any, error) {
		sim := engine.New(warm)
		sim.AddProcess(proc)
		sim.AddPeriodicTask(PeriodicSpec(sim.Config().NumSMs))
		return sim.WarmUp(ctx)
	})
	if err != nil {
		return nil, err
	}
	sim := v.(*engine.Warmup).Fork(opts, solo)
	if err := sim.RunContext(ctx, r.Window); err != nil {
		return nil, err
	}
	return sim, nil
}

// do computes one scenario run through the Runner's pool's cache:
// memoized by job, with singleflight, and never cached when fn fails or
// ctx aborts it. executed reports whether this call ran fn (false =
// cache or singleflight hit) — the dedup signal chimerad and replay
// report.
func do[T any](ctx context.Context, r *Runner, job simjob.Job, fn func(context.Context) (T, error)) (res T, executed bool, err error) {
	v, err := r.pool.Cache().DoContext(ctx, job, func(ctx context.Context) (any, error) {
		executed = true
		out, err := fn(ctx)
		return out, err
	})
	if err != nil {
		return res, executed, err
	}
	return v.(T), executed, nil
}

// soloRate returns the benchmark's stand-alone progress rate (useful
// warp instructions per cycle on the whole GPU), memoized per benchmark
// on the solo Runner copy.
func (r *Runner) soloRate(ctx context.Context, bench string) (rate float64, executed bool, err error) {
	s := r.solo()
	return do(ctx, s, s.job(simjob.KindSolo, bench, nil), func(ctx context.Context) (float64, error) {
		sim, err := s.simulate(ctx, simjob.KindSolo, []string{bench}, engine.ChimeraPolicy{}, nil)
		if err != nil {
			return 0, err
		}
		rate := float64(sim.ProcessUseful(bench)) / float64(s.Window)
		if rate <= 0 {
			return 0, fmt.Errorf("workloads: %s made no stand-alone progress", bench)
		}
		return rate, nil
	})
}

// taskPeriod is the §4.1 task's period. Its first instance arrives one
// period into a run, so that much of every single-process run is the
// benchmark alone.
const taskPeriod units.Cycles = 1000 * units.CyclesPerMicrosecond

// PeriodicSpec returns the §4.1 synthetic real-time task: launched every
// 1 ms, preempting half of the SMs, executing for 200 µs.
func PeriodicSpec(numSMs int) engine.PeriodicSpec {
	return engine.PeriodicSpec{
		Period: taskPeriod,
		Exec:   units.FromMicroseconds(200),
		SMs:    numSMs / 2,
	}
}

// PeriodicResult is one benchmark × policy outcome of the §4.1 scenario.
type PeriodicResult struct {
	Benchmark string
	Policy    string
	// ViolationRate is the fraction of task instances that missed their
	// deadline.
	ViolationRate float64
	// Overhead is the benchmark's effective-throughput overhead versus
	// its fair share (§4.1 accounting).
	Overhead float64
	// Periods is the number of task instances evaluated.
	Periods int
	// Mix counts thread-block preemptions actually executed, by
	// technique, over all requests (Fig 8c input).
	Mix [preempt.NumTechniques]int
	// ForcedRequests counts requests where Algorithm 1 had to fall back
	// to best-effort SM selection.
	ForcedRequests int
	// Outcomes holds one entry per preemption request, in issue order —
	// the raw material for latency-distribution exhibits. Because it
	// lives in the memoized result, histograms built from it survive the
	// job cache (unlike a live metrics registry, which only sees runs
	// that actually execute).
	Outcomes []RequestOutcome
}

// RequestOutcome is the distilled per-request measurement kept inside a
// cached PeriodicResult.
type RequestOutcome struct {
	// EstLatencyUs is Chimera's predicted worst per-SM latency (µs);
	// zero when the policy produced no finite estimate.
	EstLatencyUs float64
	// LatencyUs is the measured handover latency (µs); meaningful only
	// when Completed.
	LatencyUs float64
	// Completed reports every requested SM arrived; Killed that the
	// request was aborted at the requester's deadline.
	Completed bool
	Killed    bool
	// Technique is the request's dominant preemption technique (valid
	// when HasTechnique; requests that preempted no blocks have none).
	Technique    preempt.Technique
	HasTechnique bool
}

// periodic runs one benchmark against the periodic real-time task
// under the given policy and returns violation and overhead metrics,
// memoized per job identity so figures sharing the same runs (Fig 6 and
// Fig 7) pay for them once; executed reports whether this call ran the
// simulation.
func (r *Runner) periodic(ctx context.Context, bench string, policy engine.Policy) (PeriodicResult, bool, error) {
	return do(ctx, r, r.job(simjob.KindPeriodic, bench, policy), func(ctx context.Context) (PeriodicResult, error) {
		soloRate, _, err := r.soloRate(ctx, bench)
		if err != nil {
			return PeriodicResult{}, err
		}
		sim, err := r.simulate(ctx, simjob.KindPeriodic, []string{bench}, policy, nil)
		if err != nil {
			return PeriodicResult{}, err
		}
		rt := PeriodicSpec(sim.Config().NumSMs)

		res := PeriodicResult{Benchmark: bench, Policy: policy.Name()}
		// The real-time task is entitled to SMs/NumSMs of the machine for
		// Exec out of every Period: the benchmark's fair share of SM-time is
		// the remainder of its stand-alone throughput.
		solo := soloRate * float64(rt.Period)
		share := 1 - float64(rt.SMs)/float64(sim.Config().NumSMs)*float64(rt.Exec)/float64(rt.Period)
		fair := solo * share

		var overheads []float64
		var violated []bool
		for _, p := range sim.PeriodRecords() {
			violated = append(violated, p.Violated)
			overheads = append(overheads, metrics.PeriodOverhead(solo, fair, float64(p.BenchUseful)))
		}
		res.Periods = len(violated)
		res.ViolationRate = metrics.ViolationRate(violated)
		res.Overhead = metrics.Mean(overheads)
		for _, req := range sim.Requests() {
			mix := req.Mix()
			for t, n := range mix {
				res.Mix[t] += n
			}
			if req.Forced > 0 {
				res.ForcedRequests++
			}
			out := RequestOutcome{
				LatencyUs: req.LatencyCycles.Microseconds(),
				Completed: req.Completed,
				Killed:    req.Killed,
			}
			if req.EstLatencyCycles > 0 && req.EstLatencyCycles < preempt.Infeasible {
				out.EstLatencyUs = req.EstLatencyCycles / units.CyclesPerMicrosecond
			}
			out.Technique, out.HasTechnique = req.Dominant()
			res.Outcomes = append(res.Outcomes, out)
		}
		return res, nil
	})
}
