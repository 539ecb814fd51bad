// Package replay re-drives a recorded workload trace (the JSONL format
// of internal/jobspec, produced by chimerad -record or chimeraload
// -record) against a chimerad instance and renders a deterministic
// replay report.
//
// Replay is the repository's reproducibility instrument: requests are
// re-submitted strictly in admission (Seq) order, one at a time, so the
// server-side result cache sees the same sequence of identities on
// every run. Because simulation results are a pure function of the
// spec, the report — per-request terminal state, dedup flag and result
// digest — is byte-identical across replays of the same trace against
// the same server configuration, including configurations whose fault
// plane only perturbs timing (slowdowns, stalls below the violation
// threshold). The replay-determinism tests and the replay scenario of
// the end-to-end smoke (cmd/smoke) pin exactly that.
package replay

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"

	"chimera/internal/jobspec"
	"chimera/internal/server"
	"chimera/internal/server/client"
)

// ReportVersion versions the replay report format.
const ReportVersion = 1

// Entry is one re-driven request's outcome.
type Entry struct {
	// Seq is the trace record's admission sequence number.
	Seq int64 `json:"seq"`
	// SpecHash is the spec's content hash (jobspec.Spec.Hash) — the
	// cross-reference key back into the trace.
	SpecHash string `json:"spec_hash"`
	// Kind and Benchmarks identify the scenario for human readers.
	Kind       string `json:"kind"`
	Benchmarks string `json:"benchmarks"`
	// Policy is the spec's canonical policy name.
	Policy string `json:"policy"`
	// State is the job's terminal state on replay.
	State string `json:"state"`
	// Deduped reports the replayed job was served without executing a
	// new simulation. The per-entry sequence of these flags is the
	// cache-hit pattern: it depends only on the order of identities in
	// the trace, so it is invariant across replays.
	Deduped bool `json:"deduped"`
	// ResultHash digests the job's raw result payload (sha256, first 8
	// bytes, hex); empty for non-done outcomes.
	ResultHash string `json:"result_hash,omitempty"`
	// Error carries the failure or cancellation message.
	Error string `json:"error,omitempty"`
}

// Report is the deterministic outcome of one replay. It deliberately
// carries no wallclock timestamps, durations or live pool statistics —
// every field is a pure function of the trace and the server's
// simulation configuration, so equal inputs render equal bytes.
type Report struct {
	// V is the report format version.
	V int `json:"v"`
	// TraceRecords is the number of records read from the trace.
	TraceRecords int `json:"trace_records"`
	// Replayed counts re-driven requests (== TraceRecords).
	Replayed int `json:"replayed"`
	// Done, Failed and Canceled count terminal states.
	Done     int `json:"done"`
	Failed   int `json:"failed"`
	Canceled int `json:"canceled"`
	// Deduped counts cache/singleflight hits.
	Deduped int `json:"deduped"`
	// Entries lists every request in Seq order.
	Entries []Entry `json:"entries"`
}

// Render marshals the report into its canonical byte form (indented
// JSON with a trailing newline). Byte-compare two renders to verify
// replay determinism.
func (r *Report) Render() []byte {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		// Report contains only marshalable fields; this cannot fail.
		panic(err)
	}
	return append(b, '\n')
}

// Options parameterizes Run.
type Options struct {
	// Records is the trace to re-drive, as read by jobspec.ReadTrace
	// (already validated and Seq-sorted).
	Records []jobspec.TraceRecord
	// Client speaks to the target daemon.
	Client *client.Client
	// Progress, when set, receives one line per replayed request.
	Progress io.Writer
}

// Run re-drives every record in order and assembles the report.
// Requests are submitted sequentially (each waits for the previous
// one's terminal state) — slower than the daemon's full parallelism,
// but the only schedule whose cache-hit pattern is reproducible.
func Run(ctx context.Context, o Options) (*Report, error) {
	if o.Client == nil {
		return nil, fmt.Errorf("replay: nil client")
	}
	rep := &Report{V: ReportVersion, TraceRecords: len(o.Records), Entries: []Entry{}}
	for _, rec := range o.Records {
		spec := rec.Spec
		spec.Normalize()
		st, err := o.Client.SubmitWait(ctx, spec)
		if err != nil {
			return nil, fmt.Errorf("replay: seq %d (%s): %w", rec.Seq, spec.Hash(), err)
		}
		e := Entry{
			Seq:        rec.Seq,
			SpecHash:   spec.Hash(),
			Kind:       spec.Kind,
			Benchmarks: spec.Benchmarks(),
			Policy:     spec.Policy,
			State:      string(st.State),
			Deduped:    st.Deduped,
			Error:      st.Error,
		}
		rep.Replayed++
		switch st.State {
		case server.StateDone:
			rep.Done++
			sum := sha256.Sum256(st.Result)
			e.ResultHash = hex.EncodeToString(sum[:8])
		case server.StateCanceled:
			rep.Canceled++
		default:
			rep.Failed++
		}
		if st.Deduped {
			rep.Deduped++
		}
		rep.Entries = append(rep.Entries, e)
		if o.Progress != nil {
			fmt.Fprintf(o.Progress, "replayed seq %d %s %s: %s (dedup=%t)\n",
				e.Seq, e.Kind, e.Benchmarks, e.State, e.Deduped)
		}
	}
	return rep, nil
}

// RunInProcess boots a fresh in-process service core with cfg, replays
// the records against it over a loopback HTTP frontend, and drains it.
// This is the hermetic replay mode: no daemon to boot, a cold result
// cache, and therefore a reproducible cache-hit pattern.
func RunInProcess(ctx context.Context, records []jobspec.TraceRecord, cfg server.Config, progress io.Writer) (*Report, error) {
	svc := server.New(cfg)
	ts := httptest.NewServer(svc.Handler())
	defer func() {
		ts.Close()
		// The drain must run even when the replay's ctx is already
		// cancelled, or an aborted replay would leak its workers.
		//chimera:allow ctxflow shutdown is cleanup that must outlive a cancelled replay context
		_ = svc.Shutdown(context.Background())
	}()
	return Run(ctx, Options{
		Records:  records,
		Client:   client.New(ts.URL),
		Progress: progress,
	})
}
