// Package faults is the deterministic fault-injection plane for the
// chimera stack. A Plan is seeded once and then decides every fault —
// simjob worker panics and slow-downs, engine preemption stalls, and
// HTTP-level errors, resets and latency spikes — as a pure function of
// (seed, fault domain, stable identity, attempt number). Two processes
// running the same plan against the same workload therefore inject the
// identical fault sequence, no matter how executions interleave across
// worker goroutines: a chaos-campaign failure report carries only the
// seed, and replaying that seed reproduces the run bit for bit.
//
// The plan never reads the host clock or the global math/rand source
// (enforced by chimeravet's wallclock analyzer): delays go through an
// injected sleeper and all decisions come from a splitmix64-style hash
// in the style of internal/rng's seeding.
package faults

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"chimera/internal/metrics"
	"chimera/internal/simjob"
	"chimera/internal/units"
)

// Config declares the fault rates and shapes of a Plan. All rates are
// probabilities in [0, 1]; a zero rate disables that fault domain, so
// the zero Config injects nothing.
type Config struct {
	// Seed drives every injection decision. Same seed, same faults.
	Seed uint64

	// JobPanic is the probability that one simjob execution attempt
	// panics (recovered by the cache into a typed *simjob.JobError).
	JobPanic float64
	// MaxPanicsPerJob caps how many attempts of the same job may be
	// panicked (0 = no cap). With a cap of 1 and a retry budget >= 1,
	// every job eventually completes — the shape chaos regression
	// tests want.
	MaxPanicsPerJob int
	// JobSlowdown is the probability that one simjob execution attempt
	// is delayed by SlowdownDelay before running.
	JobSlowdown float64
	// SlowdownDelay is the injected per-execution delay.
	SlowdownDelay time.Duration

	// EngineStall is the probability that a preemption request's
	// technique hangs: the engine holds the handover open for
	// StallFactor times the request's estimated latency, which is what
	// the engine watchdog (engine.Options.WatchdogK) exists to detect
	// and escalate.
	EngineStall float64
	// StallFactor is the stall length in multiples of the request's
	// estimated latency (default 8 when EngineStall > 0).
	StallFactor float64
	// MaxStallsPerRun caps injected stalls within one simulation run
	// (0 = no cap).
	MaxStallsPerRun int

	// HTTPError is the probability that one chimerad request is
	// answered with an injected 503 before reaching the handler. The
	// client retries 503 on every method, so this is safe to inject on
	// POSTs.
	HTTPError float64
	// HTTPReset is the probability that one idempotent (GET/DELETE/
	// HEAD) request's connection is dropped mid-flight. POSTs are
	// never reset: the client must not retry a POST that may have
	// committed, so a reset there would turn an injected fault into a
	// legitimately lost job.
	HTTPReset float64
	// HTTPDelay is the probability that one request is delayed by
	// HTTPDelayAmount before being served.
	HTTPDelay float64
	// HTTPDelayAmount is the injected per-request latency spike.
	HTTPDelayAmount time.Duration
	// MaxHTTPFaults caps injections per HTTP fault kind (0 = no cap).
	MaxHTTPFaults int

	// Sleep performs injected delays. It defaults to a no-op so that
	// unit tests and pure decision replays never block; wire
	// time.Sleep (or a test clock) in from a cmd/ package.
	Sleep func(time.Duration)
}

// Plan is an active fault-injection plan: the Config plus the counters
// of what has actually been injected. Decision state is limited to
// per-identity attempt numbers and per-domain caps, both derived from
// stable identities — the decisions themselves are stateless hashes, so
// concurrency and execution order cannot change which attempt of which
// job draws which fault.
type Plan struct {
	cfg Config

	jobPanics    atomic.Int64
	jobSlowdowns atomic.Int64
	engineStalls atomic.Int64
	httpErrors   atomic.Int64
	httpResets   atomic.Int64
	httpDelays   atomic.Int64

	// httpSeq numbers incoming HTTP requests; the index is the
	// request's identity for fault decisions.
	httpSeq atomic.Uint64

	mu       sync.Mutex
	attempts map[uint64]uint64 // per-job-key execution attempt numbers
	panicked map[uint64]int    // per-job-key injected panic counts
}

// New builds a Plan from cfg. A nil-safe zero-rate plan injects
// nothing but still counts (nothing).
func New(cfg Config) *Plan {
	if cfg.StallFactor <= 0 {
		cfg.StallFactor = 8
	}
	if cfg.Sleep == nil {
		cfg.Sleep = func(time.Duration) {}
	}
	return &Plan{
		cfg:      cfg,
		attempts: make(map[uint64]uint64),
		panicked: make(map[uint64]int),
	}
}

// Config returns the plan's (defaulted) configuration.
func (p *Plan) Config() Config { return p.cfg }

// Fault decision domains. Each domain hashes independently so e.g. the
// panic and slowdown decisions for the same attempt are uncorrelated.
const (
	domJobPanic uint64 = 1 + iota
	domJobSlow
	domEngineStall
	domHTTPError
	domHTTPReset
	domHTTPDelay
)

// splitmix64 is the finalizer used by internal/rng's seeding; it is a
// strong 64-bit mixer, which is all a fault decision needs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// mix folds the values into one hash by chaining splitmix64.
func mix(vals ...uint64) uint64 {
	h := uint64(0x6368696d65726121) // "chimera!"
	for _, v := range vals {
		h = splitmix64(h ^ v)
	}
	return h
}

// roll maps (seed, domain, key, attempt) to a uniform float in [0, 1).
func (p *Plan) roll(domain, key, attempt uint64) float64 {
	return float64(mix(p.cfg.Seed, domain, key, attempt)>>11) / (1 << 53)
}

// Key hashes a stable string identity (job spec fields, request names)
// into the uint64 identity space the plan's decisions use. FNV-1a over
// the bytes, finalized through splitmix64.
func Key(parts ...string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, s := range parts {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
		h ^= 0xff // separator so ("ab","c") != ("a","bc")
		h *= prime64
	}
	return splitmix64(h)
}

// JobKey is the decision identity of a simjob.Job. It hashes the
// simulation parameters but not the catalog pointer (unstable across
// processes) so the same logical job draws the same faults in every
// process running the plan. Its serial= field marks the FCFS policy.
func JobKey(j simjob.Job) uint64 {
	return Key(
		j.Kind.String(),
		j.Benchmarks,
		j.Policy,
		fmt.Sprintf("serial=%t|w=%d|c=%d|h=%d|seed=%d|warm=%t|beta=%g|cfg=%+v|var=%s",
			j.Policy == "FCFS", j.Window, j.Constraint, j.Headroom, j.Seed, j.Warm,
			j.Contention, j.Config, j.Variant),
	)
}

// nextAttempt returns the 0-based attempt number for the job key and
// advances it. Retries of a panicked job hash differently from the
// first attempt, so a capped plan lets the retry through.
func (p *Plan) nextAttempt(key uint64) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := p.attempts[key]
	p.attempts[key] = n + 1
	return n
}

// allowPanic checks and consumes per-job panic budget.
func (p *Plan) allowPanic(key uint64) bool {
	if p.cfg.MaxPanicsPerJob <= 0 {
		return true
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.panicked[key] >= p.cfg.MaxPanicsPerJob {
		return false
	}
	p.panicked[key]++
	return true
}

// InjectedPanic is the panic value the simjob hook throws. Tests and
// error reports can recognise an injected panic (via the *simjob.
// JobError it is recovered into) and distinguish it from a genuine bug.
type InjectedPanic struct {
	// Key is the panicked job's decision identity.
	Key uint64
	// Attempt is the 0-based execution attempt that drew the panic.
	Attempt uint64
}

// String implements fmt.Stringer.
func (ip InjectedPanic) String() string {
	return fmt.Sprintf("faults: injected panic (job key %016x, attempt %d)", ip.Key, ip.Attempt)
}

// SimjobHook returns the exec hook to install with Cache.SetExecHook.
// On each real execution it may panic (an injected worker crash,
// recovered by the cache into a typed *simjob.JobError) or delay the
// execution through the injected sleeper (a slow worker).
func (p *Plan) SimjobHook() func(simjob.Job) {
	return func(j simjob.Job) {
		key := JobKey(j)
		attempt := p.nextAttempt(key)
		if p.cfg.JobSlowdown > 0 && p.roll(domJobSlow, key, attempt) < p.cfg.JobSlowdown {
			p.jobSlowdowns.Add(1)
			p.cfg.Sleep(p.cfg.SlowdownDelay)
		}
		if p.cfg.JobPanic > 0 && p.roll(domJobPanic, key, attempt) < p.cfg.JobPanic && p.allowPanic(key) {
			p.jobPanics.Add(1)
			panic(InjectedPanic{Key: key, Attempt: attempt})
		}
	}
}

// EngineStallFunc returns a stall injector for engine.Options.
// FaultStall, scoped to one simulation run identified by runKey
// (derive it with Key from the job's spec). The engine consults it
// once per preemption request; a non-zero return holds that request's
// handover open for the returned extra cycles, simulating a technique
// that hangs past its estimate. Each returned closure owns its own
// per-run cap state, so one run's stalls never spend another's budget.
func (p *Plan) EngineStallFunc(runKey uint64) func(reqIndex int, estimate units.Cycles) units.Cycles {
	var injected int
	return func(reqIndex int, estimate units.Cycles) units.Cycles {
		if p.cfg.EngineStall <= 0 || estimate == 0 {
			return 0
		}
		if p.cfg.MaxStallsPerRun > 0 && injected >= p.cfg.MaxStallsPerRun {
			return 0
		}
		if p.roll(domEngineStall, runKey, uint64(reqIndex)) >= p.cfg.EngineStall {
			return 0
		}
		injected++
		p.engineStalls.Add(1)
		return units.Cycles(float64(estimate)*p.cfg.StallFactor + 0.5)
	}
}

// Counts is a snapshot of how many faults the plan has injected, by
// domain.
type Counts struct {
	// JobPanics counts injected simjob worker panics.
	JobPanics int64
	// JobSlowdowns counts injected simjob execution delays.
	JobSlowdowns int64
	// EngineStalls counts injected preemption-technique stalls.
	EngineStalls int64
	// HTTPErrors counts injected 503 responses.
	HTTPErrors int64
	// HTTPResets counts injected connection resets.
	HTTPResets int64
	// HTTPDelays counts injected request latency spikes.
	HTTPDelays int64
}

// Total sums all domains.
func (c Counts) Total() int64 {
	return c.JobPanics + c.JobSlowdowns + c.EngineStalls + c.HTTPErrors + c.HTTPResets + c.HTTPDelays
}

// Counts returns the plan's injection counters.
func (p *Plan) Counts() Counts {
	return Counts{
		JobPanics:    p.jobPanics.Load(),
		JobSlowdowns: p.jobSlowdowns.Load(),
		EngineStalls: p.engineStalls.Load(),
		HTTPErrors:   p.httpErrors.Load(),
		HTTPResets:   p.httpResets.Load(),
		HTTPDelays:   p.httpDelays.Load(),
	}
}

// Publish mirrors the injection counters into a metrics registry under
// the faults/* namespace.
func (p *Plan) Publish(reg *metrics.Registry) {
	c := p.Counts()
	reg.Counter(MetricJobPanics).Set(c.JobPanics)
	reg.Counter(MetricJobSlowdowns).Set(c.JobSlowdowns)
	reg.Counter(MetricEngineStalls).Set(c.EngineStalls)
	reg.Counter(MetricHTTPErrors).Set(c.HTTPErrors)
	reg.Counter(MetricHTTPResets).Set(c.HTTPResets)
	reg.Counter(MetricHTTPDelays).Set(c.HTTPDelays)
}

// Metric names published by Plan.Publish, as package-level constants
// (enforced by chimeravet's schemaconst analyzer) and documented in
// docs/faults.md.
const (
	// MetricJobPanics counts injected simjob worker panics.
	MetricJobPanics = "faults/job_panics"
	// MetricJobSlowdowns counts injected simjob execution delays.
	MetricJobSlowdowns = "faults/job_slowdowns"
	// MetricEngineStalls counts injected preemption-technique stalls.
	MetricEngineStalls = "faults/engine_stalls"
	// MetricHTTPErrors counts injected 503 responses.
	MetricHTTPErrors = "faults/http_errors"
	// MetricHTTPResets counts injected connection resets.
	MetricHTTPResets = "faults/http_resets"
	// MetricHTTPDelays counts injected request latency spikes.
	MetricHTTPDelays = "faults/http_delays"
)

// Fingerprint is a compact stable identity of the plan's decision
// surface (seed and rates). Servers fold it into simjob.Job.Variant so
// faulted results are cached apart from clean ones, and chaos reports
// print it so a replay can verify it is running the same plan.
func (p *Plan) Fingerprint() string {
	c := p.cfg
	return fmt.Sprintf("faults:seed=%d;jp=%g/%d;js=%g;es=%g*%g/%d;he=%g;hr=%g;hd=%g/%d",
		c.Seed, c.JobPanic, c.MaxPanicsPerJob, c.JobSlowdown,
		c.EngineStall, c.StallFactor, c.MaxStallsPerRun,
		c.HTTPError, c.HTTPReset, c.HTTPDelay, c.MaxHTTPFaults)
}

// String renders the fingerprint plus current injection counts.
func (p *Plan) String() string {
	c := p.Counts()
	return fmt.Sprintf("%s [panics=%d slowdowns=%d stalls=%d 503s=%d resets=%d delays=%d]",
		p.Fingerprint(), c.JobPanics, c.JobSlowdowns, c.EngineStalls,
		c.HTTPErrors, c.HTTPResets, c.HTTPDelays)
}
