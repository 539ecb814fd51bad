package metrics_test

import (
	"os"
	"strings"
	"testing"

	"chimera/internal/cluster"
	"chimera/internal/engine"
	"chimera/internal/faults"
	"chimera/internal/server"
	"chimera/internal/simjob"
)

// The metric namespace is published in docs/observability.md,
// docs/server.md, docs/cluster.md and docs/faults.md. Registration
// sites must use the package-level name constants (enforced by
// chimeravet's schemaconst analyzer); this test closes the loop in the
// other direction: every constant the code can register under must
// appear verbatim in its document, so renaming a metric without
// updating the schema docs fails CI.

// TestMetricNamesDocumented cross-checks every metric-name constant
// against the document that publishes it.
func TestMetricNamesDocumented(t *testing.T) {
	cases := []struct {
		doc   string
		names []string
	}{
		{"../../docs/observability.md", []string{
			engine.MetricPreemptLatency,
			engine.MetricEstError,
			engine.MetricDeadlineSlack,
			engine.MetricIdleGap,
			engine.MetricRequests,
			engine.MetricForcedRequests,
			engine.MetricDeadlineMisses,
			engine.MetricRebalances,
			engine.MetricCanceledRuns,
			engine.MetricEscalations,
			engine.MetricStallsInjected,
			engine.MetricPolicySheds,
			engine.MetricPredictObservations,
			simjob.MetricTasksQueued,
			simjob.MetricTasksRunning,
			simjob.MetricTasksDone,
			simjob.MetricJobsRun,
			simjob.MetricCacheHits,
			simjob.MetricErrors,
			simjob.MetricJobTime,
			simjob.MetricEvictions,
			simjob.MetricPanics,
		}},
		{"../../docs/server.md", []string{
			server.MetricJobsSubmitted,
			server.MetricJobsCompleted,
			server.MetricJobsFailed,
			server.MetricJobsCanceled,
			server.MetricJobsRejected,
			server.MetricJobsDeduped,
			server.MetricQueueDepth,
			server.MetricJobLatency,
			server.MetricJobRetries,
			server.MetricShedHopeless,
			server.MetricRecordErrors,
			server.MetricPeerHits,
			server.MetricPeerMisses,
			server.MetricPeerErrors,
			server.MetricPeerServed,
		}},
		{"../../docs/cluster.md", []string{
			cluster.MetricFrontRouted,
			cluster.MetricFrontShed,
			cluster.MetricFrontFailovers,
			cluster.MetricFrontCacheHits,
			cluster.MetricFrontMemoHits,
			cluster.MetricFrontNoReplica,
			cluster.MetricFrontProxyErrors,
			cluster.MetricFrontInflight,
		}},
		{"../../docs/faults.md", []string{
			faults.MetricJobPanics,
			faults.MetricJobSlowdowns,
			faults.MetricEngineStalls,
			faults.MetricHTTPErrors,
			faults.MetricHTTPResets,
			faults.MetricHTTPDelays,
		}},
	}
	for _, c := range cases {
		data, err := os.ReadFile(c.doc)
		if err != nil {
			t.Fatalf("read %s: %v", c.doc, err)
		}
		text := string(data)
		for _, name := range c.names {
			if !strings.Contains(text, name) {
				t.Errorf("metric %q is registered by the code but not documented in %s", name, c.doc)
			}
		}
	}
}
