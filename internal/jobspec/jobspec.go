// Package jobspec holds the single canonical description of one
// simulation job: a versioned, JSON-serializable Spec carrying the
// scenario kind, benchmarks, policy, window/constraint/headroom, seed,
// priority, deadline and variant, with one shared normalize / validate
// / policy-parsing implementation and a stable content hash that acts
// as the job's identity everywhere (HTTP wire format, simjob cache key
// derivation, recorded traces).
//
// Every entry point speaks this dialect: chimerad's HTTP API decodes
// Specs directly (the JSON field set is the server's wire format),
// workloads.Executor runs any Spec against the engine, the experiment
// exhibits enumerate []Spec grids, and the record/replay pipeline
// (chimerad -record, chimerareplay, chimeraload -record) serializes
// Specs into the versioned JSONL trace format defined in trace.go.
// Before this package existed the server, CLI and exhibits each
// re-implemented spec construction and policy parsing; docs/jobs.md
// documents the unified schema and its identity rules.
package jobspec

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"chimera/internal/engine"
	"chimera/internal/kernels"
	"chimera/internal/units"
)

// SchemaVersion is the current Spec schema version. Specs marshal
// without an explicit version field (the zero value means "current");
// trace records carry the version explicitly in their envelope.
const SchemaVersion = 1

// Scenario kinds accepted in Spec.Kind.
const (
	// KindSolo measures one benchmark's stand-alone progress rate.
	KindSolo = "solo"
	// KindPeriodic runs a benchmark against the §4.1 periodic real-time
	// task and reports violation/overhead metrics.
	KindPeriodic = "periodic"
	// KindPair runs two benchmarks concurrently (§4.4) and reports
	// ANTT/STP.
	KindPair = "pair"
	// KindMulti runs two or more benchmarks concurrently, named in Bench
	// as a "+"-joined list, and reports ANTT, STP and the SM-busy
	// fraction. A multi spec of two benchmarks is the same run as the
	// pair spec of them.
	KindMulti = "multi"
)

// Spec is the canonical description of one simulation job. Its JSON
// encoding is chimerad's wire format (field order and tags are
// golden-tested); zero values take the documented defaults (policy
// "chimera", window 1000 µs, constraint 15 µs, seed 1).
type Spec struct {
	// Kind is the scenario family: "solo", "periodic", "pair" or
	// "multi".
	Kind string `json:"kind"`
	// Bench is the catalog benchmark (the background benchmark for
	// periodic jobs, the first process for pair jobs, and the
	// "+"-joined process list, e.g. "LUD+HS+SAD", for multi jobs).
	Bench string `json:"bench"`
	// BenchB is the second process of a pair job.
	BenchB string `json:"bench_b,omitempty"`
	// Policy executes preemption requests: "chimera" (default),
	// "switch", "drain", "flush", the deadline-aware "edf" / "slo"
	// (docs/scheduling.md), the design-choice variants
	// "chimera(optimistic)", "chimera(cycle-est)", "chimera(per-sm)" and
	// "flush(strict)", or "fcfs" (pair and multi jobs only).
	Policy string `json:"policy,omitempty"`
	// Estimator selects the runtime-estimate source preemption planning
	// consumes: "oracle" (default — the paper's warm-started measured
	// statistics, Table 2) or "online" (structural prediction from the
	// first K completed thread blocks; docs/scheduling.md).
	Estimator string `json:"estimator,omitempty"`
	// WindowUs is the simulated duration in microseconds. A periodic
	// spec evaluates only the real-time task periods whose deadline
	// check (the instance's launch plus the constraint) falls inside the
	// window, and the first instance launches at 1,000 µs. So the
	// default 1,000 µs window evaluates no period: it reports Periods 0,
	// ViolationRate 0 and Overhead 0 although the run preempts. A
	// window that is not a whole number of periods meters its last
	// period short, which inflates Overhead. Give periodic specs a
	// whole number of periods, at least 2,000 µs (docs/jobs.md).
	WindowUs float64 `json:"window_us,omitempty"`
	// ConstraintUs is the preemption latency bound in microseconds.
	ConstraintUs float64 `json:"constraint_us,omitempty"`
	// Seed drives the simulation's deterministic RNG.
	Seed uint64 `json:"seed,omitempty"`
	// Priority orders admission: higher-priority jobs dequeue first;
	// ties dequeue in submission order.
	Priority int `json:"priority,omitempty"`
	// TimeoutMs bounds the job's total service time (queue wait plus
	// execution) — the per-request SLO; past it the run is cancelled and
	// the job fails with "deadline exceeded". Zero uses the server
	// default.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// DeadlineMs is the per-request SLO deadline in milliseconds from
	// submission. The admission queue orders earliest-deadline-first
	// within a priority level, the server sheds the submission with 429
	// when its predicted completion already exceeds the deadline
	// (shed-on-hopeless), and an admitted job is cancelled once the
	// deadline passes. Zero means no deadline.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
	// Trace records the full event stream (periodic jobs only). Traced
	// jobs always execute — a trace is a side effect the result cache
	// cannot replay — and serve Perfetto JSON at /jobs/{id}/trace.
	Trace bool `json:"trace,omitempty"`
	// HeadroomUs tightens the bound plans target below the judged
	// constraint, in microseconds (the §4.1 estimation-error mitigation;
	// 0 = none).
	HeadroomUs float64 `json:"headroom_us,omitempty"`
	// Variant discriminates runs whose outcome depends on anything
	// beyond the simulation parameters above — e.g. an active fault
	// plan's fingerprint ("" for a clean run).
	Variant string `json:"variant,omitempty"`
}

// Decode reads one Spec from r strictly: an unknown field is an error,
// and only whitespace may follow the object. chimerad and chimerafront
// both decode submissions through it, so they accept the same bodies.
func Decode(r io.Reader) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, err
	}
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errors.New("a second JSON value")
		}
		return Spec{}, fmt.Errorf("data after the spec object: %w", err)
	}
	return s, nil
}

// Normalize fills defaulted fields in place and canonicalizes the
// policy name. It is idempotent; every entry point (HTTP decode, trace
// replay, builders) normalizes before validating or hashing.
func (s *Spec) Normalize() {
	if s.Policy == "" {
		s.Policy = PolicyChimera
	} else if canon, err := CanonicalPolicy(s.Policy); err == nil {
		s.Policy = canon
	}
	if canon, err := CanonicalEstimator(s.Estimator); err == nil {
		s.Estimator = canon
	}
	if s.WindowUs == 0 {
		s.WindowUs = 1000
	}
	if s.ConstraintUs == 0 {
		s.ConstraintUs = 15
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.HeadroomUs == 0 {
		s.HeadroomUs = 0 // -0 hashes as "-0" but marshals as omitted
	}
}

// MaxMultiBenchmarks bounds the process count of a multi spec: one
// process per SM of the Table 1 device. The bound also keeps a spec's
// startup short, since every process launch re-partitions the SMs over
// all active kernels before the run can be cancelled.
const MaxMultiBenchmarks = 30

// maxMs is the largest millisecond count a time.Duration holds
// (about 292 years); TimeoutMs and DeadlineMs above it would wrap.
const maxMs = math.MaxInt64 / int64(time.Millisecond)

// Validate checks a normalized spec against the catalog and the
// schema's structural rules. It returns a client-facing error.
func (s *Spec) Validate(cat *kernels.Catalog) error {
	switch s.Kind {
	case KindSolo, KindPeriodic, KindPair, KindMulti:
	default:
		return fmt.Errorf("unknown kind %q (want solo, periodic, pair or multi)", s.Kind)
	}
	if s.Bench == "" {
		return fmt.Errorf("bench is required")
	}
	benches := []string{s.Bench}
	if s.Kind == KindMulti {
		if strings.Count(s.Bench, "+") >= MaxMultiBenchmarks {
			return fmt.Errorf("bench joins more than %d benchmarks", MaxMultiBenchmarks)
		}
		if benches = strings.Split(s.Bench, "+"); len(benches) < 2 {
			return fmt.Errorf("bench must join two or more benchmarks with \"+\" for multi jobs")
		}
	}
	for _, bench := range benches {
		if _, err := cat.Benchmark(bench); err != nil {
			return fmt.Errorf("unknown bench %q", bench)
		}
	}
	if s.Kind == KindPair {
		if s.BenchB == "" {
			return fmt.Errorf("bench_b is required for pair jobs")
		}
		if _, err := cat.Benchmark(s.BenchB); err != nil {
			return fmt.Errorf("unknown bench_b %q", s.BenchB)
		}
	} else if s.BenchB != "" {
		return fmt.Errorf("bench_b is only valid for pair jobs")
	}
	p, err := ParsePolicy(s.Policy)
	if err != nil {
		return err
	}
	if _, fcfs := p.(engine.FCFS); fcfs && s.Kind != KindPair && s.Kind != KindMulti {
		return fmt.Errorf("policy %q is only valid for pair and multi jobs", PolicyFCFS)
	}
	if s.WindowUs < 0 || s.ConstraintUs < 0 {
		return fmt.Errorf("window_us and constraint_us must be positive")
	}
	// The simulation runs in whole cycles: a positive duration below half
	// a cycle rounds to zero, which no scenario can run with.
	if s.WindowUs > 0 && units.FromMicroseconds(s.WindowUs) == 0 {
		return fmt.Errorf("window_us %g rounds to zero cycles", s.WindowUs)
	}
	if s.ConstraintUs > 0 && units.FromMicroseconds(s.ConstraintUs) == 0 {
		return fmt.Errorf("constraint_us %g rounds to zero cycles", s.ConstraintUs)
	}
	if s.HeadroomUs < 0 {
		return fmt.Errorf("headroom_us must not be negative")
	}
	if s.TimeoutMs < 0 {
		return fmt.Errorf("timeout_ms must not be negative")
	}
	if s.TimeoutMs > maxMs {
		return fmt.Errorf("timeout_ms must be at most %d", maxMs)
	}
	if s.DeadlineMs < 0 {
		return fmt.Errorf("deadline_ms must not be negative")
	}
	if s.DeadlineMs > maxMs {
		return fmt.Errorf("deadline_ms must be at most %d", maxMs)
	}
	if _, err := CanonicalEstimator(s.Estimator); err != nil {
		return err
	}
	if s.Trace && s.Kind != KindPeriodic {
		return fmt.Errorf("trace is only supported for periodic jobs")
	}
	return nil
}

// Hash returns the spec's stable content hash: a 16-hex-digit digest of
// the normalized simulation identity. Two specs hash equal iff they
// describe the same deterministic simulation, so the hash is safe to
// use as a cache key, a trace cross-reference, or a dedup check.
//
// Scheduling metadata that cannot change the simulation's result —
// Priority, TimeoutMs, DeadlineMs and Trace — is deliberately excluded:
// a re-prioritized or re-deadlined replay of the same spec must still
// dedup against the original run. The Estimator is folded in (it
// changes which runtime estimates preemption planning sees, and thus
// the simulated schedule); the default empty string hashes as "oracle"
// so pre-estimator specs keep a stable identity. The schema version is
// folded in so a future field's semantics can never collide with a v1
// digest.
func (s Spec) Hash() string {
	n := s
	n.Normalize() // canonicalizes the policy and estimator
	est := n.Estimator
	if est == "" {
		est = EstimatorOracle
	}
	sum := sha256.Sum256([]byte(fmt.Sprintf(
		"jobspec/v%d|%s|%s|%s|%s|%s|%g|%g|%g|%d|%s",
		SchemaVersion, n.Kind, n.Bench, n.BenchB, n.Policy, est,
		n.WindowUs, n.ConstraintUs, n.HeadroomUs, n.Seed, n.Variant)))
	return hex.EncodeToString(sum[:8])
}

// Benchmarks renders the participating benchmarks in simjob's
// "+"-joined process-order form (a single name for solo and periodic
// specs, Bench itself for multi specs).
func (s Spec) Benchmarks() string {
	if s.Kind == KindPair && s.BenchB != "" {
		return s.Bench + "+" + s.BenchB
	}
	return s.Bench
}

// Solo returns a spec measuring bench's stand-alone progress rate.
func Solo(bench string) Spec {
	return Spec{Kind: KindSolo, Bench: bench}
}

// Periodic returns a spec running bench against the §4.1 periodic
// real-time task under the named policy ("" = chimera).
func Periodic(bench, policy string) Spec {
	return Spec{Kind: KindPeriodic, Bench: bench, Policy: policy}
}

// Pair returns a spec running two benchmarks concurrently (§4.4) under
// the named policy ("" = chimera, "fcfs" = the non-preemptive baseline).
func Pair(a, b, policy string) Spec {
	return Spec{Kind: KindPair, Bench: a, BenchB: b, Policy: policy}
}

// WithWindowUs returns the spec with the simulated window set.
func (s Spec) WithWindowUs(us float64) Spec { s.WindowUs = us; return s }

// WithConstraintUs returns the spec with the latency bound set.
func (s Spec) WithConstraintUs(us float64) Spec { s.ConstraintUs = us; return s }

// WithHeadroomUs returns the spec with the planning headroom set.
func (s Spec) WithHeadroomUs(us float64) Spec { s.HeadroomUs = us; return s }

// WithSeed returns the spec with the RNG seed set.
func (s Spec) WithSeed(seed uint64) Spec { s.Seed = seed; return s }

// WithPriority returns the spec with the admission priority set.
func (s Spec) WithPriority(p int) Spec { s.Priority = p; return s }

// WithTimeoutMs returns the spec with the service-time SLO set.
func (s Spec) WithTimeoutMs(ms int64) Spec { s.TimeoutMs = ms; return s }

// WithDeadlineMs returns the spec with the SLO deadline set.
func (s Spec) WithDeadlineMs(ms int64) Spec { s.DeadlineMs = ms; return s }

// WithEstimator returns the spec with the runtime-estimate source set.
func (s Spec) WithEstimator(name string) Spec { s.Estimator = name; return s }

// WithTrace returns the spec with event-stream recording enabled.
func (s Spec) WithTrace() Spec { s.Trace = true; return s }

// WithVariant returns the spec with the cache-variant discriminator set.
func (s Spec) WithVariant(v string) Spec { s.Variant = v; return s }
