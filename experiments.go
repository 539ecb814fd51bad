package chimera

import (
	"context"
	"io"

	"chimera/internal/experiments"
	"chimera/internal/jobspec"
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

// Jobs -----------------------------------------------------------------------

// JobSpec is the canonical description of one simulation job — the
// schema chimerad, replay and every exhibit speak (docs/jobs.md) — and
// JobResult its outcome, with the payload of the spec's kind set.
type (
	JobSpec   = jobspec.Spec
	JobResult = workloads.SpecResult
)

// RunJob normalizes, validates and executes one job spec on the
// process-wide result cache.
func RunJob(ctx context.Context, spec JobSpec) (JobResult, error) {
	res, _, err := workloads.NewExecutor(workloads.NewEnv(nil)).Run(ctx, spec)
	return res, err
}

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
