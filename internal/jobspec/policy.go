package jobspec

import (
	"fmt"
	"slices"
	"strings"

	"chimera/internal/engine"
	"chimera/internal/preempt"
	"chimera/internal/sched"
	"chimera/internal/sched/predict"
)

// Canonical policy names accepted in Spec.Policy. Each is its policy's
// display label (engine.Policy.Name) lower-cased, and parsing accepts any
// ASCII-case spelling of it, so a label read back from a rendered
// table or a recorded trace ("Chimera", "Flush(strict)") round-trips.
const (
	// PolicyChimera is Algorithm 1 — the default.
	PolicyChimera = "chimera"
	// PolicySwitch is the context-switch-everything baseline.
	PolicySwitch = "switch"
	// PolicyDrain drains every block.
	PolicyDrain = "drain"
	// PolicyFlush flushes idempotent blocks.
	PolicyFlush = "flush"
	// PolicyEDF is the deadline-ordered, preemption-cost-aware policy:
	// mixed-technique plans, but an SM whose cheapest plan exceeds the
	// requester's slack is never preempted (docs/scheduling.md).
	PolicyEDF = "edf"
	// PolicySLO is the Hummingbird-style policy: per SM, the cheapest
	// uniform technique that still meets the deadline; demand no
	// technique can serve in time is shed (docs/scheduling.md).
	PolicySLO = "slo"
	// PolicyFCFS is the non-preemptive serial baseline (pair and multi
	// jobs only).
	PolicyFCFS = "fcfs"
	// PolicyChimeraOptimistic estimates a kernel without statistics at
	// zero cost instead of the conservative maximum (an ablation).
	PolicyChimeraOptimistic = "chimera(optimistic)"
	// PolicyChimeraCycleEst estimates drain time from cycle averages
	// instead of instruction counts (an ablation).
	PolicyChimeraCycleEst = "chimera(cycle-est)"
	// PolicyChimeraPerSM uses one technique per SM (an ablation).
	PolicyChimeraPerSM = "chimera(per-sm)"
	// PolicyFlushStrict flushes under the strict idempotence condition
	// (Figure 9): a non-idempotent kernel cannot be flushed at all.
	PolicyFlushStrict = "flush(strict)"
)

// policies is the one policy table, in PolicyNames order.
var policies = []engine.Policy{
	engine.ChimeraPolicy{},
	engine.FixedPolicy{Technique: preempt.Switch},
	engine.FixedPolicy{Technique: preempt.Drain},
	engine.FixedPolicy{Technique: preempt.Flush},
	sched.EDF{},
	sched.SLO{},
	engine.FCFS{},
	engine.ChimeraPolicy{OptimisticCold: true},
	engine.ChimeraPolicy{CycleBased: true},
	engine.ChimeraPolicy{PerSMUniform: true},
	engine.FixedPolicy{Technique: preempt.Flush, StrictIdempotence: true},
}

// canonical holds each policy's canonical name, its display label
// lower-cased, computed once so that a lookup never allocates: the
// front canonicalizes every submission's policy.
var canonical = func() []string {
	names := make([]string, len(policies))
	for i, p := range policies {
		names[i] = strings.ToLower(p.Name())
	}
	return names
}()

// Canonical estimator names accepted in Spec.Estimator, re-exported
// from internal/sched/predict so spec-building call sites need only
// this package.
const (
	// EstimatorOracle is the default: the paper's warm-started measured
	// statistics (Table-2 oracle).
	EstimatorOracle = predict.NameOracle
	// EstimatorOnline is the structural online predictor (first K
	// completed thread blocks per kernel).
	EstimatorOnline = predict.NameOnline
)

// CanonicalEstimator maps an accepted estimator alias onto its
// canonical lowercase name, or errors for unknown names. The empty
// string is preserved (it means the default oracle without forcing the
// field to serialize).
func CanonicalEstimator(name string) (string, error) {
	switch strings.ToLower(name) {
	case "":
		return "", nil
	case EstimatorOracle:
		return EstimatorOracle, nil
	case EstimatorOnline, "structural":
		return EstimatorOnline, nil
	default:
		return "", fmt.Errorf("unknown estimator %q", name)
	}
}

// lookupPolicy returns the table index of the policy name spells in any
// ASCII case, without allocating. Equal byte lengths rule out the
// non-ASCII runes strings.EqualFold would fold onto ASCII letters.
func lookupPolicy(name string) (int, error) {
	for i, canon := range canonical {
		if len(name) == len(canon) && strings.EqualFold(name, canon) {
			return i, nil
		}
	}
	return 0, fmt.Errorf("unknown policy %q", name)
}

// CanonicalPolicy maps any accepted policy alias onto its canonical
// lowercase name, or errors for unknown names.
func CanonicalPolicy(name string) (string, error) {
	i, err := lookupPolicy(name)
	if err != nil {
		return "", err
	}
	return canonical[i], nil
}

// ParsePolicy maps a policy name (canonical or display alias) onto an
// engine policy. This is the single policy-parsing implementation in
// the repository — the server, executor, replayer and CLI all call it.
func ParsePolicy(name string) (engine.Policy, error) {
	i, err := lookupPolicy(name)
	if err != nil {
		return nil, err
	}
	return policies[i], nil
}

// PolicyNames lists every accepted canonical policy name.
func PolicyNames() []string { return slices.Clone(canonical) }

// PolicyKey uniquely identifies a policy configuration for job caching.
// Unlike the policy's Name it must distinguish every ablation flag
// combination, so it encodes the policy's concrete type and full field
// values; FCFS, which has none, keys as "FCFS".
func PolicyKey(p engine.Policy) string {
	if _, fcfs := p.(engine.FCFS); fcfs {
		return "FCFS"
	}
	return fmt.Sprintf("%T%+v", p, p)
}
