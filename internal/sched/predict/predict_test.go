package predict

import (
	"math"
	"testing"
	"testing/quick"

	"chimera/internal/gpu"
	"chimera/internal/units"
)

// obs is one generated observation; quick streams are slices of these.
type obs struct {
	Insts  int64
	Cycles uint64
}

// feed replays a stream into an estimator under one label, clamping the
// generated values into the engine's domain (non-negative instruction
// counts; cycles small enough that summing a stream cannot overflow).
func feed(e Estimator, label string, stream []obs) {
	for _, o := range stream {
		insts := o.Insts
		if insts < 0 {
			insts = -insts
		}
		e.Observe(label, insts%(1<<40), units.Cycles(o.Cycles%(1<<40)))
	}
}

// wellFormed checks the invariants every estimate must satisfy: finite,
// non-negative fields and a confidence inside [0, 1].
func wellFormed(t *testing.T, est Estimate) {
	t.Helper()
	for _, v := range []struct {
		name string
		val  float64
	}{
		{"InstsPerTB", est.InstsPerTB},
		{"CPI", est.CPI},
		{"CyclesPerTB", est.CyclesPerTB},
		{"Confidence", est.Confidence},
	} {
		if math.IsNaN(v.val) || math.IsInf(v.val, 0) || v.val < 0 {
			t.Fatalf("%s = %v: not finite and non-negative (estimate %+v)", v.name, v.val, est)
		}
	}
	if est.Confidence > 1 {
		t.Fatalf("Confidence = %v > 1", est.Confidence)
	}
	if est.Observations < 0 {
		t.Fatalf("Observations = %d < 0", est.Observations)
	}
}

// TestEstimateWellFormedQuick drives both estimators with arbitrary
// observation streams: no stream may ever produce a NaN, infinite or
// negative estimate, and confidence stays in [0, 1].
func TestEstimateWellFormedQuick(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() Estimator
	}{
		{"measured", func() Estimator { return NewMeasured() }},
		{"structural", func() Estimator { return NewStructural(DefaultK) }},
		{"structural-k1", func() Estimator { return NewStructural(1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prop := func(stream []obs) bool {
				e := tc.mk()
				feed(e, "k", stream)
				wellFormed(t, e.Estimate("k"))
				wellFormed(t, e.Estimate("never-observed"))
				return true
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMonotoneConvergence feeds a constant stream: the estimate must
// equal the constants exactly at every step (a mean of identical values
// is the value), and Structural's confidence must rise monotonically to
// 1 at K and stay there.
func TestMonotoneConvergence(t *testing.T) {
	const insts, cycles = 1200, 4800
	s := NewStructural(DefaultK)
	m := NewMeasured()
	prevConf := 0.0
	for i := 1; i <= 3*DefaultK; i++ {
		s.Observe("k", insts, cycles)
		m.Observe("k", insts, cycles)
		for _, v := range []struct {
			name string
			est  Estimate
		}{{"structural", s.Estimate("k")}, {"measured", m.Estimate("k")}} {
			if v.est.InstsPerTB != insts || v.est.CyclesPerTB != cycles || v.est.CPI != float64(cycles)/float64(insts) {
				t.Fatalf("%s step %d: estimate %+v drifted off the constant stream", v.name, i, v.est)
			}
		}
		conf := s.Estimate("k").Confidence
		if conf < prevConf {
			t.Fatalf("step %d: structural confidence fell %v -> %v", i, prevConf, conf)
		}
		if i >= DefaultK && conf != 1 {
			t.Fatalf("step %d: structural confidence %v, want 1 after window", i, conf)
		}
		prevConf = conf
	}
	if got := m.Estimate("k").Confidence; got != 1 {
		t.Fatalf("measured confidence %v, want 1", got)
	}
}

// TestStructuralFreeze pins the freeze-after-K contract: observations
// past the window neither move the estimate nor the observation count.
func TestStructuralFreeze(t *testing.T) {
	const k = 4
	s := NewStructural(k)
	for i := 0; i < k; i++ {
		s.Observe("k", 100, 400)
	}
	frozen := s.Estimate("k")
	if frozen.Observations != k || frozen.Confidence != 1 {
		t.Fatalf("after window: %+v, want %d observations at confidence 1", frozen, k)
	}
	for i := 0; i < 10; i++ {
		s.Observe("k", 999_999, 1) // wildly different tail blocks
	}
	if got := s.Estimate("k"); got != frozen {
		t.Fatalf("estimate moved after freeze: %+v -> %+v", frozen, got)
	}
}

// TestMeasuredMatchesKernelStats is the arithmetic-equivalence property
// the engine's metamorphic test builds on: fed the same observation
// stream, Measured's estimate is bit-identical to the means derived
// from gpu.KernelStats (both keep integer sums and divide once).
func TestMeasuredMatchesKernelStats(t *testing.T) {
	prop := func(stream []obs) bool {
		m := NewMeasured()
		var stats gpu.KernelStats
		for _, o := range stream {
			insts := o.Insts
			if insts < 0 {
				insts = -insts
			}
			insts %= 1 << 40
			cycles := units.Cycles(o.Cycles % (1 << 40))
			m.Observe("k", insts, cycles)
			stats.RecordCompletion(insts, cycles)
		}
		est := m.Estimate("k")
		if avg, ok := stats.AvgInstsPerTB(); ok {
			if est.InstsPerTB != avg {
				t.Fatalf("InstsPerTB %v != KernelStats %v", est.InstsPerTB, avg)
			}
		} else if est.Observations != 0 {
			t.Fatalf("empty stats but estimate %+v", est)
		}
		if avg, ok := stats.AvgCPI(); ok && est.CPI != avg {
			t.Fatalf("CPI %v != KernelStats %v", est.CPI, avg)
		}
		if stats.CompletedTBs > 0 {
			want := float64(stats.CyclesFromCompleted) / float64(stats.CompletedTBs)
			if est.CyclesPerTB != want {
				t.Fatalf("CyclesPerTB %v != KernelStats %v", est.CyclesPerTB, want)
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestApplyGate pins the confidence gate: below-gate estimates leave
// the cost-model input untouched, at-gate estimates set every Has flag
// (HasCPI only when instructions were observed).
func TestApplyGate(t *testing.T) {
	var e gpu.KernelEstimate
	(Estimate{}).Apply(&e, DefaultConfidenceGate)
	if e.HasInsts || e.HasCPI || e.HasCycles {
		t.Fatalf("zero estimate set flags: %+v", e)
	}
	(Estimate{InstsPerTB: 10, CPI: 4, CyclesPerTB: 40, Observations: 2, Confidence: DefaultConfidenceGate / 2}).Apply(&e, DefaultConfidenceGate)
	if e.HasInsts || e.HasCPI || e.HasCycles {
		t.Fatalf("below-gate estimate set flags: %+v", e)
	}
	(Estimate{InstsPerTB: 10, CPI: 4, CyclesPerTB: 40, Observations: 4, Confidence: DefaultConfidenceGate}).Apply(&e, DefaultConfidenceGate)
	if !e.HasInsts || !e.HasCPI || !e.HasCycles {
		t.Fatalf("at-gate estimate left flags unset: %+v", e)
	}
	if e.AvgInstsPerTB != 10 || e.AvgCPI != 4 || e.AvgCyclesPerTB != 40 {
		t.Fatalf("applied values wrong: %+v", e)
	}
	// Zero instructions: cycles apply but CPI stays unusable.
	var z gpu.KernelEstimate
	(Estimate{CyclesPerTB: 40, Observations: 1, Confidence: 1}).Apply(&z, DefaultConfidenceGate)
	if !z.HasCycles || z.HasCPI {
		t.Fatalf("zero-insts estimate: %+v, want cycles without CPI", z)
	}
}

// TestForName pins the spec-name mapping, in particular that oracle
// mode resolves to a nil estimator — the engine's unchanged built-in
// path, which is what keeps oracle runs bit-identical.
func TestForName(t *testing.T) {
	for _, name := range []string{"", NameOracle} {
		e, err := ForName(name)
		if err != nil || e != nil {
			t.Fatalf("ForName(%q) = %v, %v; want nil, nil", name, e, err)
		}
	}
	e, err := ForName(NameOnline)
	if err != nil {
		t.Fatalf("ForName(online): %v", err)
	}
	s, ok := e.(*Structural)
	if !ok || s.K != DefaultK {
		t.Fatalf("ForName(online) = %#v, want *Structural with K=%d", e, DefaultK)
	}
	if _, err := ForName("bogus"); err == nil {
		t.Fatal("ForName(bogus) succeeded")
	}
}

// TestLabelsIndependent verifies per-label isolation: observing one
// kernel never perturbs another's estimate.
func TestLabelsIndependent(t *testing.T) {
	for _, e := range []Estimator{NewMeasured(), NewStructural(DefaultK)} {
		e.Observe("a", 100, 400)
		e.Observe("b", 7, 7000)
		a, b := e.Estimate("a"), e.Estimate("b")
		if a.InstsPerTB != 100 || a.CyclesPerTB != 400 {
			t.Fatalf("%s: label a contaminated: %+v", e.Name(), a)
		}
		if b.InstsPerTB != 7 || b.CyclesPerTB != 7000 {
			t.Fatalf("%s: label b contaminated: %+v", e.Name(), b)
		}
	}
}
