package chimera

import (
	"context"
	"io"

	"chimera/internal/experiments"
	"chimera/internal/metrics"
	"chimera/internal/simjob"
	"chimera/internal/tablefmt"
	"chimera/internal/workloads"
)

// Experiment harness --------------------------------------------------------

// Scale sets the simulated durations of the evaluation runs.
type Scale = experiments.Scale

// DefaultScale is the scale the recorded EXPERIMENTS.md results use;
// QuickScale is a fast smoke-test preset.
func DefaultScale() Scale { return experiments.DefaultScale() }

// QuickScale returns the fast preset for tests and demos.
func QuickScale() Scale { return experiments.QuickScale() }

// ResultTable is a printable experiment result.
type ResultTable = tablefmt.Table

// ExperimentNames lists the regenerable exhibits in the order
// `chimerasim list` prints them: the paper's table1, table2, fig2, fig3
// and fig6-fig11, then latency, allpairs, ablation, contention,
// scaling, estacc, calibrated, gpusize, seeds and shootout.
func ExperimentNames() []string { return experiments.Names() }

// RunExperiment regenerates one of the paper's tables or figures.
func RunExperiment(name string, s Scale) ([]*ResultTable, error) {
	return experiments.Run(name, s)
}

// RunAllExperiments regenerates every exhibit in order.
func RunAllExperiments(s Scale) ([]*ResultTable, error) {
	return experiments.RunAll(s)
}

// RenderTables writes tables one after another to w.
func RenderTables(w io.Writer, tables []*ResultTable) error {
	for _, t := range tables {
		if err := t.Render(w); err != nil {
			return err
		}
	}
	return nil
}

// RenderTablesJSON writes tables as a JSON array for plotting pipelines.
func RenderTablesJSON(w io.Writer, tables []*ResultTable) error {
	return tablefmt.WriteJSON(w, tables)
}

// Job scheduling -------------------------------------------------------------

// JobStats is a snapshot of one result cache's counters: batch tasks
// queued/running/done, simulations executed, cache hits, errors,
// panics, evictions and cumulative simulation wall time. Set
// Scale.Parallelism to bound how many simulations run at once
// (0 = GOMAXPROCS); results are identical at any value.
type JobStats = simjob.Stats

// GlobalJobStats reports the counters of the process-wide result cache
// every experiment runs on unless its Scale names another — what drives
// chimerasim's -progress ticker and -metrics dump.
func GlobalJobStats() JobStats { return simjob.SharedCache().Stats() }

// Scenario runners -----------------------------------------------------------

// ScenarioRunner executes the §4.1 periodic-task and §4.4
// multiprogramming scenarios (a pair is the two-process RunMulti run)
// with memoized stand-alone baselines.
type ScenarioRunner = workloads.Runner

// PeriodicResult and MultiResult are the per-scenario outcomes.
type (
	PeriodicResult = workloads.PeriodicResult
	MultiResult    = workloads.MultiResult
)

// NewScenarioRunner builds a runner with the given simulation window,
// preemption latency constraint and seed.
func NewScenarioRunner(window, constraint Cycles, seed uint64) (*ScenarioRunner, error) {
	return workloads.NewRunner(window, constraint, seed)
}

// StandardPolicies returns the §4 contenders: Switch, Drain, Flush,
// Chimera.
func StandardPolicies() []Policy { return workloads.StandardPolicies() }

// Recording ------------------------------------------------------------------

// RecordOptions configures one fully-traced contention run; Recording
// is its outcome (the complete event stream plus headline counts).
type (
	RecordOptions = workloads.RecordOptions
	Recording     = workloads.Recording
)

// RecordScenario executes one §4.1 contention scenario with full
// tracing (never cached) — the source of `chimerasim -trace` artifacts.
func RecordScenario(opts RecordOptions) (*Recording, error) {
	return workloads.Record(context.Background(), opts)
}

// Metrics --------------------------------------------------------------------

// MetricsRegistry is a named collection of counters and histograms with
// a deterministic text dump; install via SimOptions.Metrics or
// RecordOptions.Metrics. MetricsHistogram and MetricsCounter are its
// entry types.
type (
	MetricsRegistry  = metrics.Registry
	MetricsHistogram = metrics.Histogram
	MetricsCounter   = metrics.Counter
)

// NewMetricsRegistry creates an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }
