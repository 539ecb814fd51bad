package server

import (
	"encoding/json"
	"time"

	"chimera/internal/jobspec"
	"chimera/internal/simjob"
	"chimera/internal/workloads"
)

// Wire types of the chimerad HTTP/JSON API. The full route reference,
// including error codes and the SSE event format, lives in
// docs/server.md; the typed client in internal/server/client speaks
// exactly these shapes.
//
// The job description itself is the canonical jobspec.Spec
// (docs/jobs.md) — the server performs no spec normalization,
// validation or policy parsing of its own, so a spec admitted over HTTP
// is bit-for-bit the spec the executor, the exhibits and the
// record/replay pipeline handle.

// JobSpec is one simulation-job submission: an alias for the canonical
// jobspec.Spec, whose JSON encoding is this API's wire format. Zero
// values take the documented defaults (policy "chimera", window
// 1000 µs, constraint 15 µs, seed 1).
type JobSpec = jobspec.Spec

// JobState is a job's lifecycle phase.
type JobState string

// The job lifecycle: queued → running → one of the terminal states.
const (
	// StateQueued: admitted, waiting for a worker.
	StateQueued JobState = "queued"
	// StateRunning: executing on a worker.
	StateRunning JobState = "running"
	// StateDone: completed successfully; the result is available.
	StateDone JobState = "done"
	// StateFailed: completed with an error, or reached its deadline
	// queued or running ("deadline exceeded").
	StateFailed JobState = "failed"
	// StateCanceled: cancelled by DELETE, an abandoned wait=1 request or
	// the shutdown cut-off before completing.
	StateCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// JobStatus is the API view of one job. Result is populated only on
// terminal done jobs; Stats snapshots the server's simjob cache when
// the status was rendered (the payload of SSE progress frames).
type JobStatus struct {
	// ID is the server-assigned job identifier.
	ID string `json:"id"`
	// State is the lifecycle phase at render time.
	State JobState `json:"state"`
	// Spec echoes the normalized submission.
	Spec JobSpec `json:"spec"`
	// Deduped reports the job completed without executing a new
	// simulation: its result came from the cache or from a concurrent
	// identical run (singleflight).
	Deduped bool `json:"deduped,omitempty"`
	// Error carries the failure or cancellation message.
	Error string `json:"error,omitempty"`
	// Result is the deterministic result payload (state "done" only).
	Result json.RawMessage `json:"result,omitempty"`
	// Stats is a snapshot of the server's simjob cache counters (its
	// tasks, runs, hits and evictions), included in SSE progress frames.
	Stats *simjob.Stats `json:"stats,omitempty"`
	// SubmittedAt, StartedAt and FinishedAt timestamp the lifecycle
	// (RFC 3339; zero values omitted).
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
}

// JobResult is the deterministic result payload served at
// /jobs/{id}/result: the executor's workloads.SpecResult, whose JSON
// encoding is the wire format. Exactly one of the kind-specific fields
// is set. Two submissions of the same scenario marshal to
// byte-identical payloads — the dedup guarantee the server's tests pin
// down.
type JobResult = workloads.SpecResult

// TraceInfo summarizes the recording of a traced periodic job (the
// Trace field of JobResult); the full Perfetto export streams from
// /jobs/{id}/trace.
type TraceInfo = workloads.TraceInfo

// errorBody is the JSON error envelope every non-2xx response carries.
type errorBody struct {
	Error string `json:"error"`
}
