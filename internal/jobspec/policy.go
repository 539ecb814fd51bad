package jobspec

import (
	"fmt"
	"strings"

	"chimera/internal/engine"
	"chimera/internal/preempt"
	"chimera/internal/sched"
	"chimera/internal/sched/predict"
)

// Canonical policy names accepted in Spec.Policy. Parsing also accepts
// the display labels the engine policies print in result tables
// ("Chimera", "Switch", …), case-insensitively, so a name read back
// from a rendered table or a recorded trace round-trips.
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
	// PolicyFCFS is the non-preemptive serial baseline (pair jobs only).
	PolicyFCFS = "fcfs"
)

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

// CanonicalPolicy maps any accepted policy alias onto its canonical
// lowercase name, or errors for unknown names.
func CanonicalPolicy(name string) (string, error) {
	switch strings.ToLower(name) {
	case PolicyChimera:
		return PolicyChimera, nil
	case PolicySwitch:
		return PolicySwitch, nil
	case PolicyDrain:
		return PolicyDrain, nil
	case PolicyFlush:
		return PolicyFlush, nil
	case PolicyEDF:
		return PolicyEDF, nil
	case PolicySLO:
		return PolicySLO, nil
	case PolicyFCFS:
		return PolicyFCFS, nil
	default:
		return "", fmt.Errorf("unknown policy %q", name)
	}
}

// ParsePolicy maps a policy name (canonical or display alias) onto an
// engine policy; serial reports the FCFS baseline (nil policy, serial
// execution). This is the single policy-parsing implementation in the
// repository — the server, executor, replayer and CLI all call it.
func ParsePolicy(name string) (p engine.Policy, serial bool, err error) {
	canon, err := CanonicalPolicy(name)
	if err != nil {
		return nil, false, err
	}
	switch canon {
	case PolicyChimera:
		return engine.ChimeraPolicy{}, false, nil
	case PolicySwitch:
		return engine.FixedPolicy{Technique: preempt.Switch}, false, nil
	case PolicyDrain:
		return engine.FixedPolicy{Technique: preempt.Drain}, false, nil
	case PolicyFlush:
		return engine.FixedPolicy{Technique: preempt.Flush}, false, nil
	case PolicyEDF:
		return sched.EDF{}, false, nil
	case PolicySLO:
		return sched.SLO{}, false, nil
	default: // PolicyFCFS
		return nil, true, nil
	}
}

// PolicyNames lists every accepted canonical policy name.
func PolicyNames() []string {
	return []string{PolicyChimera, PolicySwitch, PolicyDrain, PolicyFlush, PolicyEDF, PolicySLO, PolicyFCFS}
}

// PolicyName is the display label used in result tables ("Chimera",
// "Switch", "FCFS", …); a nil non-serial policy renders as "none".
func PolicyName(p engine.Policy, serial bool) string {
	if serial {
		return "FCFS"
	}
	if p == nil {
		return "none"
	}
	return p.Name()
}

// PolicyKey uniquely identifies a policy configuration for job caching.
// Unlike PolicyName it must distinguish every ablation flag
// combination, so it encodes the policy's concrete type and full field
// values.
func PolicyKey(p engine.Policy, serial bool) string {
	if serial {
		return "FCFS"
	}
	if p == nil {
		return "none"
	}
	return fmt.Sprintf("%T%+v", p, p)
}
