package engine

import (
	"strings"

	"chimera/internal/metrics"
	"chimera/internal/preempt"
	"chimera/internal/units"
)

// Observability instrumentation: when Options.Metrics carries a
// registry, the engine publishes latency distributions and scheduler
// counters into it at its decision points. With a nil registry every
// hook is a single pointer check — recording is zero-cost when
// disabled, matching the tracing contract.

// simMetrics holds the engine's pre-resolved metric handles so the hot
// path never takes the registry lock.
type simMetrics struct {
	// latency is the measured preemption latency of completed requests;
	// latencyBy splits it by the request's dominant technique.
	latency   *metrics.Histogram
	latencyBy [preempt.NumTechniques]*metrics.Histogram
	// estErr is the signed estimation error (estimated − measured, µs)
	// of completed requests that carried a finite estimate.
	estErr *metrics.Histogram
	// slack is constraint minus acquire latency for periodic-task
	// instances that met their deadline.
	slack *metrics.Histogram
	// idleGap is the idle time between two busy spans of an SM.
	idleGap *metrics.Histogram

	requests   *metrics.Counter
	forced     *metrics.Counter
	misses     *metrics.Counter
	rebalances *metrics.Counter
	// escalations counts watchdog firings that strengthened an overdue
	// request's techniques; stallsInjected counts fault-plane stalls
	// applied to requests (Options.FaultStall).
	escalations    *metrics.Counter
	stallsInjected *metrics.Counter
	// canceled counts runs abandoned through RunContext cancellation —
	// the observable signal that a server-side cancel actually stopped
	// the engine.
	canceled *metrics.Counter
	// policySheds counts SMs the policy was offered but declined to
	// take (deadline-aware policies shed demand they cannot serve
	// within the constraint); predictObs counts thread-block completion
	// events fed to the per-kernel running estimates, added once per run
	// from Simulation.predictObs.
	policySheds *metrics.Counter
	predictObs  *metrics.Counter
}

// Metric names are package-level constants (enforced by chimeravet's
// schemaconst analyzer) so the schema published in docs/observability.md
// and the Prometheus exposition cannot silently drift from the code.
const (
	// MetricPreemptLatency is the measured preemption latency histogram;
	// per-technique splits append "/" + the lowercased technique name.
	MetricPreemptLatency = "preempt/latency_us"
	// MetricEstError is the signed estimation-error histogram.
	MetricEstError = "preempt/est_error_us"
	// MetricDeadlineSlack is the met-deadline slack histogram.
	MetricDeadlineSlack = "deadline/slack_us"
	// MetricIdleGap is the SM idle-gap histogram.
	MetricIdleGap = "sm/idle_gap_us"
	// MetricRequests counts preemption requests issued.
	MetricRequests = "preempt/requests"
	// MetricForcedRequests counts requests that forced at least one SM.
	MetricForcedRequests = "preempt/forced_requests"
	// MetricDeadlineMisses counts violated periodic deadlines.
	MetricDeadlineMisses = "deadline/misses"
	// MetricRebalances counts scheduler rebalance decisions.
	MetricRebalances = "sched/rebalances"
	// MetricCanceledRuns counts runs abandoned through RunContext.
	MetricCanceledRuns = "sim/canceled_runs"
	// MetricEscalations counts watchdog technique escalations of
	// overdue preemption requests (Options.WatchdogK).
	MetricEscalations = "preempt/escalations"
	// MetricStallsInjected counts fault-plane technique stalls applied
	// to preemption requests (Options.FaultStall).
	MetricStallsInjected = "preempt/stalls_injected"
	// MetricPolicySheds counts SMs a deadline-aware policy was offered
	// but declined to preempt (shed demand).
	MetricPolicySheds = "sched/policy_sheds"
	// MetricPredictObservations counts thread-block completions fed to
	// the per-kernel running estimates (Options.EstimateWindow).
	MetricPredictObservations = "predict/observations"
)

// latencyBuckets spans sub-µs drains to the longest catalog drain times
// (hundreds of µs) in exponential steps.
var latencyBuckets = metrics.ExpBuckets(0.5, 2, 12)

// errBuckets is symmetric around zero for the signed estimation error.
var errBuckets = []float64{-8, -4, -2, -1, -0.5, -0.1, 0, 0.1, 0.5, 1, 2, 4, 8}

// newSimMetrics resolves every handle the engine observes through.
func newSimMetrics(reg *metrics.Registry) *simMetrics {
	m := &simMetrics{
		latency: reg.Histogram(MetricPreemptLatency, "µs", latencyBuckets),
		estErr:  reg.Histogram(MetricEstError, "µs", errBuckets),
		slack:   reg.Histogram(MetricDeadlineSlack, "µs", latencyBuckets),
		idleGap: reg.Histogram(MetricIdleGap, "µs", latencyBuckets),

		requests:       reg.Counter(MetricRequests),
		forced:         reg.Counter(MetricForcedRequests),
		misses:         reg.Counter(MetricDeadlineMisses),
		rebalances:     reg.Counter(MetricRebalances),
		canceled:       reg.Counter(MetricCanceledRuns),
		escalations:    reg.Counter(MetricEscalations),
		stallsInjected: reg.Counter(MetricStallsInjected),
		policySheds:    reg.Counter(MetricPolicySheds),
		predictObs:     reg.Counter(MetricPredictObservations),
	}
	for _, t := range preempt.Techniques() {
		name := MetricPreemptLatency + "/" + strings.ToLower(t.String())
		m.latencyBy[t] = reg.Histogram(name, "µs", latencyBuckets)
	}
	return m
}

// observeRequestIssued fires once per preemption request at issue time.
//
//chimera:hot
func (s *Simulation) observeRequestIssued(rec *RequestRecord) {
	if s.m == nil {
		return
	}
	s.m.requests.Add(1)
	if rec.Forced > 0 {
		s.m.forced.Add(1)
	}
}

// observeRequestComplete fires when the last SM of a request arrives.
//
//chimera:hot
func (s *Simulation) observeRequestComplete(rec *RequestRecord) {
	if s.m == nil {
		return
	}
	lat := rec.LatencyCycles.Microseconds()
	s.m.latency.Observe(lat)
	if tech, ok := rec.Dominant(); ok {
		s.m.latencyBy[tech].Observe(lat)
	}
	if rec.EstLatencyCycles > 0 && rec.EstLatencyCycles < preempt.Infeasible {
		s.m.estErr.Observe(rec.EstLatencyCycles/units.CyclesPerMicrosecond - lat)
	}
}

// observeDeadline fires at every periodic-task deadline check.
//
//chimera:hot
func (s *Simulation) observeDeadline(met bool, slack units.Cycles) {
	if s.m == nil {
		return
	}
	if met {
		s.m.slack.Observe(slack.Microseconds())
	} else {
		s.m.misses.Add(1)
	}
}

// observeIdleGap fires when an SM transitions idle→busy after having
// been busy before; gap is the idle span's length.
//
//chimera:hot
func (s *Simulation) observeIdleGap(gap units.Cycles) {
	if s.m == nil {
		return
	}
	s.m.idleGap.Observe(gap.Microseconds())
}
