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

// clamp maps a generated observation into the engine's domain:
// non-negative instruction counts, and cycles small enough that summing
// a stream cannot overflow.
func (o obs) clamp() (int64, units.Cycles) {
	insts := o.Insts
	if insts < 0 {
		insts = -insts
	}
	return insts % (1 << 40), units.Cycles(o.Cycles % (1 << 40))
}

// feed replays a stream into an estimate.
func feed(r *Running, stream []obs) {
	for _, o := range stream {
		r.Observe(o.clamp())
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

// TestEstimateWellFormedQuick drives the oracle (no window) and online
// (windowed) estimates with arbitrary observation streams: no stream may
// ever produce a NaN, infinite or negative estimate, and confidence
// stays in [0, 1].
func TestEstimateWellFormedQuick(t *testing.T) {
	for _, tc := range []struct {
		name   string
		window int64
	}{
		{"measured", 0},
		{"structural", DefaultK},
		{"structural-k1", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prop := func(stream []obs) bool {
				r := &Running{Window: tc.window}
				feed(r, stream)
				wellFormed(t, r.Estimate())
				wellFormed(t, (&Running{Window: tc.window}).Estimate())
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
// is the value), and the windowed confidence must rise monotonically to
// 1 at K and stay there.
func TestMonotoneConvergence(t *testing.T) {
	const insts, cycles = 1200, 4800
	s := &Running{Window: DefaultK}
	m := &Running{}
	prevConf := 0.0
	for i := 1; i <= 3*DefaultK; i++ {
		s.Observe(insts, cycles)
		m.Observe(insts, cycles)
		for _, v := range []struct {
			name string
			est  Estimate
		}{{"structural", s.Estimate()}, {"measured", m.Estimate()}} {
			if v.est.InstsPerTB != insts || v.est.CyclesPerTB != cycles || v.est.CPI != float64(cycles)/float64(insts) {
				t.Fatalf("%s step %d: estimate %+v drifted off the constant stream", v.name, i, v.est)
			}
		}
		conf := s.Estimate().Confidence
		if conf < prevConf {
			t.Fatalf("step %d: structural confidence fell %v -> %v", i, prevConf, conf)
		}
		if i >= DefaultK && conf != 1 {
			t.Fatalf("step %d: structural confidence %v, want 1 after window", i, conf)
		}
		prevConf = conf
	}
	if got := m.Estimate(); got.Confidence != 1 || got.Observations != 3*DefaultK {
		t.Fatalf("measured estimate %+v, want confidence 1 over %d observations", got, 3*DefaultK)
	}
}

// TestStructuralFreeze pins the freeze-after-K contract: observations
// past the window neither move the estimate nor the observation count.
func TestStructuralFreeze(t *testing.T) {
	const k = 4
	s := &Running{Window: k}
	for i := 0; i < k; i++ {
		s.Observe(100, 400)
	}
	frozen := s.Estimate()
	if frozen.Observations != k || frozen.Confidence != 1 {
		t.Fatalf("after window: %+v, want %d observations at confidence 1", frozen, k)
	}
	for i := 0; i < 10; i++ {
		s.Observe(999_999, 1) // wildly different tail blocks
	}
	if got := s.Estimate(); got != frozen {
		t.Fatalf("estimate moved after freeze: %+v -> %+v", frozen, got)
	}
}

// TestMeasuredMatchesKernelStats pins the oracle's arithmetic: with no
// window, every observation counts, and the means are the test's own
// integer sums divided once — the paper's measured statistics, bit for
// bit.
func TestMeasuredMatchesKernelStats(t *testing.T) {
	prop := func(stream []obs) bool {
		r := &Running{}
		var n, sumInsts int64
		var sumCycles units.Cycles
		for _, o := range stream {
			insts, cycles := o.clamp()
			r.Observe(insts, cycles)
			n++
			sumInsts += insts
			sumCycles += cycles
		}
		est := r.Estimate()
		if est.Observations != n {
			t.Fatalf("Observations %d, fed %d", est.Observations, n)
		}
		if n == 0 {
			if est != (Estimate{}) {
				t.Fatalf("empty stream but estimate %+v", est)
			}
			return true
		}
		if want := float64(sumInsts) / float64(n); est.InstsPerTB != want {
			t.Fatalf("InstsPerTB %v, want %v", est.InstsPerTB, want)
		}
		if want := float64(sumCycles) / float64(n); est.CyclesPerTB != want {
			t.Fatalf("CyclesPerTB %v, want %v", est.CyclesPerTB, want)
		}
		if sumInsts > 0 {
			if want := float64(sumCycles) / float64(sumInsts); est.CPI != want {
				t.Fatalf("CPI %v, want %v", est.CPI, want)
			}
		}
		if est.Confidence != 1 {
			t.Fatalf("Confidence %v, want 1", est.Confidence)
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestKernelStatsAverages pins the measured means the cost models see:
// an empty estimate has none, and two blocks give exact means.
func TestKernelStatsAverages(t *testing.T) {
	var r Running
	var e gpu.KernelEstimate
	r.Estimate().Apply(&e, DefaultConfidenceGate)
	if e.HasInsts || e.HasCPI || e.HasCycles {
		t.Errorf("empty estimate claims averages: %+v", e)
	}
	r.Observe(1000, 4000)
	r.Observe(2000, 10000)
	r.Estimate().Apply(&e, DefaultConfidenceGate)
	if !e.HasInsts || e.AvgInstsPerTB != 1500 {
		t.Errorf("AvgInstsPerTB = %v/%v", e.AvgInstsPerTB, e.HasInsts)
	}
	if !e.HasCPI || math.Abs(e.AvgCPI-14000.0/3000.0) > 1e-12 {
		t.Errorf("AvgCPI = %v/%v", e.AvgCPI, e.HasCPI)
	}
	if !e.HasCycles || e.AvgCyclesPerTB != 7000 {
		t.Errorf("AvgCyclesPerTB = %v/%v", e.AvgCyclesPerTB, e.HasCycles)
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

// TestForName pins the spec-name mapping: the oracle (and the empty
// default) averages every block, online freezes after DefaultK, and
// anything else is an error.
func TestForName(t *testing.T) {
	for _, tc := range []struct {
		name   string
		window int64
	}{{"", 0}, {NameOracle, 0}, {NameOnline, DefaultK}} {
		window, err := ForName(tc.name)
		if err != nil || window != tc.window {
			t.Errorf("ForName(%q) = %d, %v; want %d, nil", tc.name, window, err, tc.window)
		}
	}
	if _, err := ForName("bogus"); err == nil {
		t.Fatal("ForName(bogus) succeeded")
	}
}

// TestLabelsIndependent pins that an estimate holds no state outside
// itself: the engine keeps one Running per kernel label, and two of
// them fed interleaved streams report exactly what each reports alone.
func TestLabelsIndependent(t *testing.T) {
	for _, window := range []int64{0, DefaultK} {
		a, b := &Running{Window: window}, &Running{Window: window}
		a.Observe(100, 400)
		b.Observe(7, 7000)
		a.Observe(100, 400)
		if got := a.Estimate(); got.InstsPerTB != 100 || got.CyclesPerTB != 400 || got.Observations != 2 {
			t.Fatalf("window %d: label a contaminated: %+v", window, got)
		}
		if got := b.Estimate(); got.InstsPerTB != 7 || got.CyclesPerTB != 7000 || got.Observations != 1 {
			t.Fatalf("window %d: label b contaminated: %+v", window, got)
		}
	}
}
