package jobspec

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"chimera/internal/kernels"
)

// FuzzSpec feeds arbitrary bodies through the submit path — Decode,
// Normalize, Validate, Hash — and checks the identity rules the
// cache, the wire format and replay rely on: Normalize is idempotent;
// Hash survives a second Normalize and any change to the scheduling
// fields it excludes (Priority, TimeoutMs, DeadlineMs, Trace); an
// accepted spec re-marshals and decodes to the same Hash; and an
// accepted spec's timeout and deadline convert to non-negative
// time.Durations, as the server converts them.
func FuzzSpec(f *testing.F) {
	f.Add([]byte(`{"kind":"solo","bench":"SAD"}`), 1, int64(500), int64(0), false)
	f.Add([]byte(`{"kind":"periodic","bench":"SAD","policy":"Drain","window_us":2000,"seed":7,"trace":true}`), -3, int64(0), int64(40), true)
	f.Add([]byte(`{"kind":"pair","bench":"SAD","bench_b":"MUM","policy":"fcfs","estimator":"Structural","headroom_us":1.5,"variant":"faults:x"}`), 0, int64(1), int64(2), false)
	cat := kernels.Load()
	f.Fuzz(func(t *testing.T, body []byte, priority int, timeoutMs, deadlineMs int64, trace bool) {
		s, err := Decode(bytes.NewReader(body))
		if err != nil {
			return
		}
		s.Normalize()
		once := s
		s.Normalize()
		if s != once {
			t.Fatalf("Normalize is not idempotent: %+v, then %+v", once, s)
		}
		h := s.Hash()
		if h != once.Hash() {
			t.Fatalf("Hash moved under a second Normalize: %s != %s", h, once.Hash())
		}
		sched := s
		sched.Priority, sched.TimeoutMs, sched.DeadlineMs, sched.Trace = priority, timeoutMs, deadlineMs, trace
		if got := sched.Hash(); got != h {
			t.Fatalf("Hash moved with scheduling fields only: %s for %+v, %s for %+v", got, sched, h, s)
		}
		if s.Validate(cat) != nil {
			return
		}
		raw, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("marshal accepted spec %+v: %v", s, err)
		}
		back, err := Decode(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("decode re-marshaled spec %s: %v", raw, err)
		}
		back.Normalize()
		if got := back.Hash(); got != h {
			t.Fatalf("round trip moved Hash: %s for %+v, %s for %s", h, s, got, raw)
		}
		if time.Duration(s.TimeoutMs)*time.Millisecond < 0 || time.Duration(s.DeadlineMs)*time.Millisecond < 0 {
			t.Fatalf("accepted timeout_ms %d / deadline_ms %d wrap as a time.Duration", s.TimeoutMs, s.DeadlineMs)
		}
	})
}

// FuzzReadTrace feeds arbitrary bytes through ReadTrace, the JSONL
// boundary chimerareplay reads recorded workloads through, and checks
// what replay relies on: no panic; every record of an accepted trace
// has a version no newer than TraceVersion and a spec hash that is
// empty or matches its spec; and records come back in Seq order. With
// long set, a record that is valid but padded past the reader's line
// cap follows the input, and the read must fail rather than accept,
// drop or split that line.
func FuzzReadTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, long bool) {
		if long {
			data = append(append(data[:len(data):len(data)], '\n'), bytes.Repeat([]byte{' '}, maxTraceLine)...)
			data = append(data, "{}"...)
		}
		recs, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		if long {
			t.Fatalf("a %d-byte line was accepted (%d records)", maxTraceLine+2, len(recs))
		}
		for i, rec := range recs {
			if rec.V > TraceVersion {
				t.Fatalf("record %d has version %d, newer than %d", i, rec.V, TraceVersion)
			}
			if rec.SpecHash != "" && rec.SpecHash != rec.Spec.Hash() {
				t.Fatalf("record %d has spec hash %s, but its spec hashes to %s", i, rec.SpecHash, rec.Spec.Hash())
			}
			if i > 0 && recs[i-1].Seq > rec.Seq {
				t.Fatalf("records %d and %d out of Seq order: %d then %d", i-1, i, recs[i-1].Seq, rec.Seq)
			}
		}
	})
}
