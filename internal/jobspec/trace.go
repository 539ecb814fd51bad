package jobspec

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// TraceVersion is the version stamped into every trace record's
// envelope. Readers reject records from a newer schema instead of
// silently misinterpreting them.
const TraceVersion = 1

// TraceRecord is one admitted request in a recorded workload trace:
// the arrival offset, the full canonical spec, and the request's final
// outcome. Traces are serialized as JSONL — one record per line — so a
// recorder can append while a daemon runs and a reader can stream
// arbitrarily large traces.
type TraceRecord struct {
	// V is the trace schema version (TraceVersion).
	V int `json:"v"`
	// Seq is the admission sequence number; replay re-drives requests
	// in ascending Seq order.
	Seq int64 `json:"seq"`
	// ArrivalMs is the request's arrival offset in milliseconds since
	// the recording started.
	ArrivalMs float64 `json:"arrival_ms"`
	// Spec is the canonical job description as admitted (normalized).
	Spec Spec `json:"spec"`
	// SpecHash is Spec.Hash() at record time — the cross-reference key
	// between trace entries, cache identities and replay reports.
	SpecHash string `json:"spec_hash"`
	// Outcome is the job's terminal state ("done", "failed",
	// "canceled").
	Outcome string `json:"outcome"`
	// Deduped reports the job completed without executing a new
	// simulation (result cache or singleflight hit).
	Deduped bool `json:"deduped,omitempty"`
	// Error carries the failure or cancellation message.
	Error string `json:"error,omitempty"`
}

// TraceWriter appends TraceRecords to an underlying stream as JSONL.
// It is safe for concurrent use; records are written whole (one line
// per Append) so a crashed recording is still a prefix-valid trace.
type TraceWriter struct {
	mu  sync.Mutex
	w   io.Writer
	seq int64
	n   int
}

// NewTraceWriter returns a TraceWriter over w.
func NewTraceWriter(w io.Writer) *TraceWriter {
	return &TraceWriter{w: w}
}

// Append writes one record. A zero rec.V is stamped with TraceVersion
// and a zero rec.Seq is assigned the next sequence number; rec.SpecHash
// is filled from the spec when empty.
func (t *TraceWriter) Append(rec TraceRecord) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if rec.V == 0 {
		rec.V = TraceVersion
	}
	if rec.Seq == 0 {
		t.seq++
		rec.Seq = t.seq
	} else if rec.Seq > t.seq {
		t.seq = rec.Seq
	}
	if rec.SpecHash == "" {
		rec.SpecHash = rec.Spec.Hash()
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if _, err := t.w.Write(append(line, '\n')); err != nil {
		return err
	}
	t.n++
	return nil
}

// Count reports how many records have been appended.
func (t *TraceWriter) Count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// maxTraceLine bounds one JSONL trace line; ReadTrace fails on a longer
// one rather than buffer it without limit.
const maxTraceLine = 4 << 20

// ReadTrace parses a JSONL trace, validates every record's version and
// spec hash, and returns the records sorted by Seq (a recorder that
// writes records at completion time emits them out of arrival order;
// replay wants admission order). Blank lines are skipped; a line longer
// than 4 MiB fails the read.
func ReadTrace(r io.Reader) ([]TraceRecord, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxTraceLine)
	var out []TraceRecord
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var rec TraceRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("jobspec: trace line %d: %w", line, err)
		}
		if rec.V > TraceVersion {
			return nil, fmt.Errorf("jobspec: trace line %d: version %d is newer than supported %d", line, rec.V, TraceVersion)
		}
		if rec.SpecHash != "" && rec.SpecHash != rec.Spec.Hash() {
			return nil, fmt.Errorf("jobspec: trace line %d: spec hash %s does not match spec (want %s)",
				line, rec.SpecHash, rec.Spec.Hash())
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("jobspec: reading trace: %w", err)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, nil
}
