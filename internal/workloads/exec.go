package workloads

import (
	"context"
	"fmt"

	"chimera/internal/engine"
	"chimera/internal/jobspec"
	"chimera/internal/simjob"
	"chimera/internal/units"
)

// SpecResult is the outcome of executing one jobspec.Spec: exactly one
// of the kind-specific payloads is populated, tagged by Kind. Its JSON
// encoding is chimerad's result payload (server.JobResult); two runs of
// the same spec marshal to byte-identical payloads.
type SpecResult struct {
	// Kind echoes the spec's scenario kind.
	Kind string `json:"kind"`
	// SoloRate is the stand-alone progress rate (solo specs).
	SoloRate float64 `json:"solo_rate,omitempty"`
	// Periodic is the §4.1 periodic-task outcome (periodic specs).
	Periodic *PeriodicResult `json:"periodic,omitempty"`
	// Pair is the §4.4 ANTT/STP outcome (pair specs).
	Pair *PairResult `json:"pair,omitempty"`
	// Multi is the N-process ANTT/STP outcome (multi specs).
	Multi *MultiResult `json:"multi,omitempty"`
	// Trace summarizes a traced run (periodic specs with trace: true).
	Trace *TraceInfo `json:"trace,omitempty"`
}

// TraceInfo summarizes the recording of a traced periodic spec; chimerad
// streams the full Perfetto export from /jobs/{id}/trace.
type TraceInfo struct {
	// Events is the number of recorded trace events.
	Events int `json:"events"`
	// Periods and Violations count real-time task instances and their
	// deadline misses.
	Periods int `json:"periods"`
	// Violations is the number of missed deadlines (see Periods).
	Violations int `json:"violations"`
	// Requests counts preemption requests issued.
	Requests int `json:"requests"`
}

// Executor runs canonical jobspec.Specs against the simulation engine.
// It snapshots a Runner's environment (catalog, pool, engine telemetry,
// warm/contention/device configuration, watchdog and fault plumbing) and
// derives a per-spec Runner for each Spec, so every entry point that
// speaks jobspec — chimerad, the exhibits, replay — funnels into the
// exact same execution and cache-identity path. Two specs with equal
// Hash() map onto the same simjob.Job and therefore the same memoized
// result.
type Executor struct {
	base *Runner
}

// NewExecutor wraps an environment Runner (NewEnv builds the default
// one). Each Run sets the Runner's Window, Constraint, Seed, Headroom
// and Estimator from the spec, while its remaining fields (catalog,
// pool, Warm, Contention, Config, Metrics, Watchdog, Stall, Variant
// fallback) define the execution environment shared by every spec.
func NewExecutor(r *Runner) *Executor {
	return &Executor{base: r}
}

// prepare normalizes and validates spec in place, parses its policy,
// and derives the per-spec Runner: the base environment with the spec's
// simulation parameters substituted in.
func (e *Executor) prepare(spec *jobspec.Spec) (r *Runner, policy engine.Policy, err error) {
	spec.Normalize()
	if err := spec.Validate(e.base.cat); err != nil {
		return nil, nil, err
	}
	policy, err = jobspec.ParsePolicy(spec.Policy)
	if err != nil {
		return nil, nil, err
	}
	rs := *e.base
	rs.Window = units.FromMicroseconds(spec.WindowUs)
	rs.Constraint = units.FromMicroseconds(spec.ConstraintUs)
	rs.Headroom = units.FromMicroseconds(spec.HeadroomUs)
	rs.Seed = spec.Seed
	rs.Estimator = spec.Estimator
	if spec.Variant != "" {
		rs.Variant = spec.Variant
	}
	return &rs, policy, nil
}

// Run executes one spec. The spec is normalized and validated first, so
// callers may pass sparse specs straight from user input. A pair spec
// is the two-process multi run and shares its cached result.
// executed reports whether the call ran a simulation (false = result
// cache or singleflight hit) — the dedup signal chimerad and replay
// reports use.
func (e *Executor) Run(ctx context.Context, spec jobspec.Spec) (res SpecResult, executed bool, err error) {
	r, policy, err := e.prepare(&spec)
	if err != nil {
		return SpecResult{}, false, err
	}
	res.Kind = spec.Kind
	switch spec.Kind {
	case jobspec.KindSolo:
		res.SoloRate, executed, err = r.soloRate(ctx, spec.Bench)
	case jobspec.KindPeriodic:
		var pr PeriodicResult
		pr, executed, err = r.periodic(ctx, spec.Bench, policy)
		res.Periodic = &pr
	default: // jobspec.KindPair, jobspec.KindMulti
		var mr MultiResult
		mr, executed, err = r.multi(ctx, spec.Benchmarks(), policy)
		if spec.Kind == jobspec.KindMulti {
			res.Multi = &mr
		} else {
			res.Pair = &PairResult{A: spec.Bench, B: spec.BenchB, Policy: mr.Policy, ANTT: mr.ANTT, STP: mr.STP, Requests: mr.Requests}
		}
	}
	if err != nil {
		return SpecResult{}, executed, err
	}
	return res, executed, nil
}

// RunSpecs executes a batch of specs as one flat task list over the
// pool (simjob.Map) and returns results in enumeration order, so output
// is byte-identical at any parallelism. The first failing spec by index
// fails the batch.
func (e *Executor) RunSpecs(ctx context.Context, specs []jobspec.Spec) ([]SpecResult, error) {
	return simjob.Map(e.base.pool, len(specs), func(i int) (SpecResult, error) {
		spec := specs[i]
		res, _, err := e.Run(ctx, spec)
		if err != nil {
			return SpecResult{}, fmt.Errorf("workloads: spec %s (%s %s): %w", spec.Hash(), spec.Kind, spec.Benchmarks(), err)
		}
		return res, nil
	})
}

// SimJob returns the cache identity the spec executes under — the
// bridge between a Spec's serializable Hash() and the in-process
// simjob key. Equal spec hashes yield equal jobs under a fixed
// environment, which the identity tests pin; solo specs that differ
// only in constraint_us hash apart but share a job.
func (e *Executor) SimJob(spec jobspec.Spec) (simjob.Job, error) {
	r, policy, err := e.prepare(&spec)
	if err != nil {
		return simjob.Job{}, err
	}
	kind := simjob.KindMulti // pair and multi specs are N-process runs
	switch spec.Kind {
	case jobspec.KindSolo:
		kind = simjob.KindSolo
		r = r.solo()
	case jobspec.KindPeriodic:
		kind = simjob.KindPeriodic
	}
	return r.job(kind, spec.Benchmarks(), policy), nil
}
