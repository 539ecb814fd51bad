package jobspec

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"chimera/internal/engine"
	"chimera/internal/kernels"
	"chimera/internal/preempt"
	"chimera/internal/sched"
)

// TestDecode: Decode accepts one spec object with surrounding
// whitespace, a trailing newline included, and rejects stray bytes
// after it. chimerad's TestValidationErrors covers unknown fields and
// a second object over HTTP.
func TestDecode(t *testing.T) {
	for _, body := range []string{
		`{"kind":"solo","bench":"SAD","window_us":100}`,
		`{"kind":"solo","bench":"SAD","window_us":100}` + "\n",
		" \t{\"kind\":\"solo\",\"bench\":\"SAD\",\"window_us\":100}\r\n ",
	} {
		s, err := Decode(strings.NewReader(body))
		if err != nil || s.Bench != "SAD" || s.WindowUs != 100 {
			t.Errorf("Decode(%q) = %+v, %v", body, s, err)
		}
	}
	for _, body := range []string{
		`{"kind":"solo","bench":"SAD","window_us":100}}`,
		`{"kind":"solo","bench":"SAD","window_us":100} x`,
		`{"kind":"solo","bench":"SAD","window_us":100} 1`,
		``,
	} {
		if s, err := Decode(strings.NewReader(body)); err == nil {
			t.Errorf("Decode(%q) accepted %+v", body, s)
		}
	}
}

// TestPolicyAliasRoundTrip pins the full accepted alias set: every
// alias parses, formats back to a display name, and re-parses to the
// same policy — the drift class the old duplicated server/workloads
// parsers allowed.
func TestPolicyAliasRoundTrip(t *testing.T) {
	cases := []struct {
		alias  string
		canon  string
		policy engine.Policy
	}{
		{"chimera", PolicyChimera, engine.ChimeraPolicy{}},
		{"Chimera", PolicyChimera, engine.ChimeraPolicy{}},
		{"CHIMERA", PolicyChimera, engine.ChimeraPolicy{}},
		{"switch", PolicySwitch, engine.FixedPolicy{Technique: preempt.Switch}},
		{"Switch", PolicySwitch, engine.FixedPolicy{Technique: preempt.Switch}},
		{"drain", PolicyDrain, engine.FixedPolicy{Technique: preempt.Drain}},
		{"Drain", PolicyDrain, engine.FixedPolicy{Technique: preempt.Drain}},
		{"flush", PolicyFlush, engine.FixedPolicy{Technique: preempt.Flush}},
		{"Flush", PolicyFlush, engine.FixedPolicy{Technique: preempt.Flush}},
		{"edf", PolicyEDF, sched.EDF{}},
		{"EDF", PolicyEDF, sched.EDF{}},
		{"slo", PolicySLO, sched.SLO{}},
		{"SLO", PolicySLO, sched.SLO{}},
		{"fcfs", PolicyFCFS, engine.FCFS{}},
		{"FCFS", PolicyFCFS, engine.FCFS{}},
		{"chimera(optimistic)", PolicyChimeraOptimistic, engine.ChimeraPolicy{OptimisticCold: true}},
		{"Chimera(optimistic)", PolicyChimeraOptimistic, engine.ChimeraPolicy{OptimisticCold: true}},
		{"chimera(cycle-est)", PolicyChimeraCycleEst, engine.ChimeraPolicy{CycleBased: true}},
		{"Chimera(cycle-est)", PolicyChimeraCycleEst, engine.ChimeraPolicy{CycleBased: true}},
		{"chimera(per-sm)", PolicyChimeraPerSM, engine.ChimeraPolicy{PerSMUniform: true}},
		{"Chimera(per-SM)", PolicyChimeraPerSM, engine.ChimeraPolicy{PerSMUniform: true}},
		{"flush(strict)", PolicyFlushStrict, engine.FixedPolicy{Technique: preempt.Flush, StrictIdempotence: true}},
		{"Flush(strict)", PolicyFlushStrict, engine.FixedPolicy{Technique: preempt.Flush, StrictIdempotence: true}},
	}
	for _, c := range cases {
		canon, err := CanonicalPolicy(c.alias)
		if err != nil {
			t.Fatalf("CanonicalPolicy(%q): %v", c.alias, err)
		}
		if canon != c.canon {
			t.Errorf("CanonicalPolicy(%q) = %q, want %q", c.alias, canon, c.canon)
		}
		p, err := ParsePolicy(c.alias)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", c.alias, err)
		}
		if p != c.policy {
			t.Errorf("ParsePolicy(%q) = %v, want %v", c.alias, p, c.policy)
		}
		// Display name must itself be an accepted alias that re-parses to
		// the same policy.
		name := p.Name()
		p2, err := ParsePolicy(name)
		if err != nil {
			t.Fatalf("ParsePolicy(%q's Name() = %q): %v", c.alias, name, err)
		}
		if p2 != p {
			t.Errorf("alias %q: display name %q re-parsed to %v, want %v", c.alias, name, p2, p)
		}
	}
	// The canonical list and the case set above must agree, and every
	// canonical name is its policy's display label lower-cased.
	if got, want := len(PolicyNames()), 11; got != want {
		t.Errorf("PolicyNames() has %d entries, want %d", got, want)
	}
	for _, name := range PolicyNames() {
		p, err := ParsePolicy(name)
		if err != nil {
			t.Fatalf("canonical policy %q does not parse: %v", name, err)
		}
		if label := p.Name(); strings.ToLower(label) != name {
			t.Errorf("canonical policy %q has display label %q", name, label)
		}
	}
	// Only ASCII case folds: strings.EqualFold alone would also take the
	// long s (U+017F) for "s" and the Kelvin sign (U+212A) for "k".
	for _, name := range []string{"vaporware", "\u017Fwitch", "ſlo", "", "chimera ", "chimera(per-sm"} {
		if _, err := ParsePolicy(name); err == nil {
			t.Errorf("ParsePolicy accepted %q", name)
		}
	}
}

// TestPolicyKey pins the cache-key encoding: it must distinguish
// ablation flags the display name collapses, and stay byte-identical
// to the historical workloads encoding (cache identities survive the
// refactor).
func TestPolicyKey(t *testing.T) {
	if k := PolicyKey(engine.FCFS{}); k != "FCFS" {
		t.Errorf("PolicyKey(FCFS{}) = %q, want FCFS", k)
	}
	base := PolicyKey(engine.ChimeraPolicy{})
	if base != "engine.ChimeraPolicy{StrictIdempotence:false OptimisticCold:false CycleBased:false PerSMUniform:false}" {
		t.Errorf("PolicyKey(ChimeraPolicy{}) = %q changed encoding — this invalidates every cached identity", base)
	}
	ablation := PolicyKey(engine.ChimeraPolicy{OptimisticCold: true})
	if base == ablation {
		t.Error("PolicyKey does not distinguish ablation flags")
	}
}

// TestNormalizeDefaults pins the server's documented defaults.
func TestNormalizeDefaults(t *testing.T) {
	s := Spec{Kind: KindSolo, Bench: "SAD"}
	s.Normalize()
	if s.Policy != PolicyChimera || s.WindowUs != 1000 || s.ConstraintUs != 15 || s.Seed != 1 {
		t.Errorf("Normalize() = %+v, want chimera/1000/15/1", s)
	}
	// Normalize canonicalizes alias case and is idempotent.
	s2 := Spec{Kind: KindPair, Bench: "A", BenchB: "B", Policy: "FCFS"}
	s2.Normalize()
	if s2.Policy != PolicyFCFS {
		t.Errorf("Normalize left policy %q, want %q", s2.Policy, PolicyFCFS)
	}
	before := s2
	s2.Normalize()
	if s2 != before {
		t.Errorf("Normalize is not idempotent: %+v != %+v", s2, before)
	}
}

// TestValidate exercises the structural rules against the real catalog.
func TestValidate(t *testing.T) {
	cat := kernels.Load()
	ok := func(s Spec) {
		t.Helper()
		s.Normalize()
		if err := s.Validate(cat); err != nil {
			t.Errorf("Validate(%+v): unexpected error %v", s, err)
		}
	}
	bad := func(s Spec, frag string) {
		t.Helper()
		s.Normalize()
		err := s.Validate(cat)
		if err == nil || !strings.Contains(err.Error(), frag) {
			t.Errorf("Validate(%+v) = %v, want error containing %q", s, err, frag)
		}
	}
	ok(Solo("SAD"))
	ok(Periodic("SAD", PolicyDrain))
	ok(Pair("SAD", "MUM", PolicyFCFS))
	ok(Spec{Kind: KindMulti, Bench: "LUD+HS+SAD", Policy: PolicyFCFS})
	ok(Spec{Kind: KindMulti, Bench: "SAD+SAD"})
	ok(Periodic("SAD", PolicyFlushStrict))
	ok(Periodic("SAD", "").WithTrace())
	bad(Spec{Kind: "warmup", Bench: "SAD"}, "unknown kind")
	bad(Spec{Kind: KindSolo}, "bench is required")
	bad(Solo("NOPE"), "unknown bench")
	bad(Pair("SAD", "", PolicyChimera), "bench_b is required")
	bad(Pair("SAD", "NOPE", PolicyChimera), "unknown bench_b")
	bad(Spec{Kind: KindSolo, Bench: "SAD", BenchB: "MUM"}, "bench_b is only valid")
	bad(Periodic("SAD", "vaporware"), "unknown policy")
	bad(Periodic("SAD", PolicyFCFS), "only valid for pair and multi jobs")
	bad(Spec{Kind: KindMulti, Bench: "SAD"}, "two or more benchmarks")
	ok(Spec{Kind: KindMulti, Bench: strings.Repeat("SAD+", MaxMultiBenchmarks-1) + "SAD"})
	bad(Spec{Kind: KindMulti, Bench: strings.Repeat("SAD+", MaxMultiBenchmarks) + "SAD"}, "more than 30 benchmarks")
	bad(Spec{Kind: KindMulti, Bench: "SAD+NOPE"}, `unknown bench "NOPE"`)
	bad(Spec{Kind: KindMulti, Bench: "SAD+"}, `unknown bench ""`)
	bad(Spec{Kind: KindMulti, Bench: "SAD+MUM", BenchB: "HS"}, "bench_b is only valid")
	bad(Spec{Kind: KindMulti, Bench: "SAD+MUM"}.WithTrace(), "trace is only supported")
	bad(Solo("SAD").WithTimeoutMs(-1), "timeout_ms")
	// Millisecond counts above math.MaxInt64/1e6 wrap as a time.Duration.
	ok(Solo("SAD").WithTimeoutMs(9223372036854).WithDeadlineMs(9223372036854))
	bad(Solo("SAD").WithTimeoutMs(9223372036855), "timeout_ms must be at most 9223372036854")
	bad(Solo("SAD").WithTimeoutMs(10000000000000), "timeout_ms must be at most")
	bad(Solo("SAD").WithDeadlineMs(9223372036855), "deadline_ms must be at most 9223372036854")
	bad(Solo("SAD").WithDeadlineMs(math.MaxInt64), "deadline_ms must be at most")
	bad(Solo("SAD").WithHeadroomUs(-1), "headroom_us")
	bad(Solo("SAD").WithTrace(), "trace is only supported")
	// Positive durations below half a cycle (1/2800 µs) round to zero;
	// 0.001 µs rounds to one cycle.
	ok(Solo("SAD").WithWindowUs(0.001).WithConstraintUs(0.001))
	bad(Solo("SAD").WithWindowUs(0.0001), "window_us 0.0001 rounds to zero cycles")
	bad(Solo("SAD").WithConstraintUs(0.0001), "constraint_us 0.0001 rounds to zero cycles")
}

// TestHashIdentity pins the hash semantics: scheduling metadata does
// not perturb it, simulation parameters and the variant do, and alias
// spellings collapse.
func TestHashIdentity(t *testing.T) {
	base := Periodic("SAD", "chimera").WithWindowUs(2000).WithSeed(7)
	if base.Hash() != base.Hash() {
		t.Fatal("Hash is not stable")
	}
	same := []Spec{
		base.WithPriority(9),
		base.WithTimeoutMs(5000),
		base.WithDeadlineMs(5000),
		base.WithEstimator("oracle"),
		base.WithEstimator("ORACLE"),
		Periodic("SAD", "Chimera").WithWindowUs(2000).WithSeed(7),
		Periodic("SAD", "").WithWindowUs(2000).WithSeed(7),
	}
	for i, s := range same {
		if s.Hash() != base.Hash() {
			t.Errorf("case %d: hash %s != base %s — scheduling metadata or alias leaked into the identity", i, s.Hash(), base.Hash())
		}
	}
	diff := []Spec{
		base.WithSeed(8),
		base.WithWindowUs(2001),
		base.WithConstraintUs(30),
		base.WithHeadroomUs(2),
		base.WithVariant("faults:1"),
		base.WithEstimator("online"),
		base.WithEstimator("structural"), // alias of online, distinct from oracle
		Periodic("MUM", "chimera").WithWindowUs(2000).WithSeed(7),
		Periodic("SAD", "drain").WithWindowUs(2000).WithSeed(7),
	}
	for i, s := range diff {
		if s.Hash() == base.Hash() {
			t.Errorf("case %d: hash collision with base — a simulation parameter is missing from the identity", i)
		}
	}
	if len(base.Hash()) != 16 {
		t.Errorf("hash %q is not 16 hex digits", base.Hash())
	}
}

// TestSpecHashGolden pins spec digests taken before the multi kind and
// the variant policies existed: one spec per kind under each policy of
// that time (fcfs on pair only) and the estimator, headroom, variant
// and parameter forms. The wire, recorded traces and chimerad's dedup
// all key on these digests, so none may move.
func TestSpecHashGolden(t *testing.T) {
	golden := []struct {
		spec Spec
		hash string
	}{
		{Spec{Kind: KindSolo, Bench: "SAD", Policy: PolicyChimera}, "0ed0713cffcd7ce4"},
		{Periodic("SAD", PolicyChimera), "b4541366ee1388f9"},
		{Pair("SAD", "MUM", PolicyChimera), "2753b521b74472a1"},
		{Spec{Kind: KindSolo, Bench: "SAD", Policy: PolicySwitch}, "0ff7f2c037cd0fb9"},
		{Periodic("SAD", PolicySwitch), "910e110d34a677be"},
		{Pair("SAD", "MUM", PolicySwitch), "82ea017f2a94dc24"},
		{Spec{Kind: KindSolo, Bench: "SAD", Policy: PolicyDrain}, "c044b47284beed7f"},
		{Periodic("SAD", PolicyDrain), "77f73173bb3d8389"},
		{Pair("SAD", "MUM", PolicyDrain), "1fa3b357418e6dad"},
		{Spec{Kind: KindSolo, Bench: "SAD", Policy: PolicyFlush}, "af5ad84dcaed65c3"},
		{Periodic("SAD", PolicyFlush), "bbe7ff298754fa41"},
		{Pair("SAD", "MUM", PolicyFlush), "9113ee5223920a29"},
		{Spec{Kind: KindSolo, Bench: "SAD", Policy: PolicyEDF}, "7e0da0dfec7cf152"},
		{Periodic("SAD", PolicyEDF), "4f598cf5b99a4ecc"},
		{Pair("SAD", "MUM", PolicyEDF), "d965003c857f7857"},
		{Spec{Kind: KindSolo, Bench: "SAD", Policy: PolicySLO}, "f3c541777bec228c"},
		{Periodic("SAD", PolicySLO), "91894afd3fe019c9"},
		{Pair("SAD", "MUM", PolicySLO), "0238871b0a294d92"},
		{Pair("SAD", "MUM", PolicyFCFS), "a948788779e7a545"},
		{Periodic("SAD", PolicyChimera).WithEstimator(EstimatorOnline), "eb618839abe8cae1"},
		{Periodic("SAD", PolicyChimera).WithHeadroomUs(1), "296216d564dfccda"},
		{Periodic("SAD", PolicyChimera).WithVariant("faults:x"), "4e622072e26113d6"},
		{Periodic("LUD", PolicyFlush).WithWindowUs(6000).WithConstraintUs(5).WithSeed(3), "b5e8bd58cc74e5e0"},
	}
	for _, g := range golden {
		if got := g.spec.Hash(); got != g.hash {
			t.Errorf("%s %s under %q: hash %s, want %s", g.spec.Kind, g.spec.Benchmarks(), g.spec.Policy, got, g.hash)
		}
		// A display-label spelling of the policy keys the same.
		alias := g.spec
		p, err := ParsePolicy(alias.Policy)
		if err != nil {
			t.Fatal(err)
		}
		if alias.Policy = p.Name(); alias.Hash() != g.hash {
			t.Errorf("%s %s under %q: alias hash %s, want %s", alias.Kind, alias.Benchmarks(), alias.Policy, alias.Hash(), g.hash)
		}
	}
}

// TestSpecWireFormat is the jobspec-side wire golden: the JSON encoding
// (field names, order, omitempty behaviour) is chimerad's API format
// and must not drift.
func TestSpecWireFormat(t *testing.T) {
	s := Spec{Kind: KindPair, Bench: "SAD", BenchB: "MUM", Policy: PolicyFCFS,
		WindowUs: 1000, ConstraintUs: 15, Seed: 1, Priority: 2, TimeoutMs: 100}
	got, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"kind":"pair","bench":"SAD","bench_b":"MUM","policy":"fcfs","window_us":1000,"constraint_us":15,"seed":1,"priority":2,"timeout_ms":100}`
	if string(got) != want {
		t.Errorf("wire format drifted:\n got %s\nwant %s", got, want)
	}
	// The SLO fields ride between policy and window_us (estimator) and
	// after timeout_ms (deadline_ms).
	slo := Spec{Kind: KindPeriodic, Bench: "SAD", Policy: PolicyEDF, Estimator: EstimatorOnline,
		WindowUs: 1000, ConstraintUs: 15, Seed: 1, TimeoutMs: 100, DeadlineMs: 250}
	got, err = json.Marshal(slo)
	if err != nil {
		t.Fatal(err)
	}
	want = `{"kind":"periodic","bench":"SAD","policy":"edf","estimator":"online","window_us":1000,"constraint_us":15,"seed":1,"timeout_ms":100,"deadline_ms":250}`
	if string(got) != want {
		t.Errorf("SLO wire format drifted:\n got %s\nwant %s", got, want)
	}
	// New optional fields stay off the wire when zero.
	minimal, err := json.Marshal(Spec{Kind: KindSolo, Bench: "SAD"})
	if err != nil {
		t.Fatal(err)
	}
	if string(minimal) != `{"kind":"solo","bench":"SAD"}` {
		t.Errorf("minimal spec marshals to %s — a new field leaked into the wire format", minimal)
	}
}

// TestTraceRoundTrip writes records through a TraceWriter and reads
// them back, checking version stamping, hash filling and Seq sorting.
func TestTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewTraceWriter(&buf)
	spec := Solo("SAD").WithSeed(3)
	spec.Normalize()
	// Out-of-order completion: seq 2 lands before seq 1.
	if err := w.Append(TraceRecord{Seq: 2, ArrivalMs: 1.5, Spec: spec, Outcome: "done"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(TraceRecord{Seq: 1, ArrivalMs: 0.5, Spec: spec, Outcome: "done", Deduped: true}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(TraceRecord{ArrivalMs: 2.5, Spec: spec, Outcome: "canceled", Error: "context canceled"}); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 3 {
		t.Fatalf("Count() = %d, want 3", w.Count())
	}
	recs, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("ReadTrace returned %d records, want 3", len(recs))
	}
	for i, rec := range recs {
		if rec.Seq != int64(i+1) {
			t.Errorf("record %d has seq %d, want sorted ascending", i, rec.Seq)
		}
		if rec.V != TraceVersion {
			t.Errorf("record %d has version %d, want %d", i, rec.V, TraceVersion)
		}
		if rec.SpecHash != spec.Hash() {
			t.Errorf("record %d hash %s, want %s", i, rec.SpecHash, spec.Hash())
		}
	}
	// A tampered spec no longer matches its recorded hash.
	tampered := strings.Replace(traceLine(t, spec), `"seed":3`, `"seed":4`, 1)
	if _, err := ReadTrace(strings.NewReader(tampered)); err == nil {
		t.Error("ReadTrace accepted a record whose spec does not match its hash")
	}
	// Future versions are rejected, not misread.
	future := strings.Replace(traceLine(t, spec), `"v":1`, `"v":99`, 1)
	if _, err := ReadTrace(strings.NewReader(future)); err == nil {
		t.Error("ReadTrace accepted a record from a future schema version")
	}
}

// traceLine renders one valid trace line for mutation tests.
func traceLine(t *testing.T, spec Spec) string {
	t.Helper()
	var buf bytes.Buffer
	if err := NewTraceWriter(&buf).Append(TraceRecord{Spec: spec, Outcome: "done"}); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}
