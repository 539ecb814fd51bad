package engine

import (
	"math"
	"testing"

	"chimera/internal/gpu"
	"chimera/internal/rng"
	"chimera/internal/sched/predict"
	"chimera/internal/units"
)

func testInstance(params gpu.KernelParams, grid int) *kernelInstance {
	sim := &Simulation{cfg: gpu.DefaultConfig()}
	return &kernelInstance{
		params:      params,
		process:     &process{sim: sim},
		grid:        grid,
		outstanding: grid,
		smSet:       make([]*smUnit, sim.cfg.NumSMs),
		est:         &predict.Running{},
		rng:         rng.New(1),
		cpiMu:       rng.LogNormalMu(params.BaseCPI, params.CPISigma),
		breachInst:  params.BreachInst(),
	}
}

func testParams() gpu.KernelParams {
	return gpu.KernelParams{
		Label: "T", Benchmark: "T", Name: "T",
		InstsPerTB: 1000, BaseCPI: 4, CPISigma: 0.3,
		TBsPerSM: 4, ContextBytesPerTB: 8 * units.KB,
		GridSize: 10, StrictIdempotent: false, BreachFraction: 0.8,
	}
}

func TestNextTBSequence(t *testing.T) {
	k := testInstance(testParams(), 3)
	var got []int
	for {
		tb := k.nextTB()
		if tb == nil {
			break
		}
		got = append(got, tb.index)
		if tb.insts != 1000 || tb.breachInst != 800 {
			t.Errorf("block %d: insts=%d breach=%d", tb.index, tb.insts, tb.breachInst)
		}
	}
	if len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Errorf("fresh sequence = %v", got)
	}
}

func TestRequeuePriority(t *testing.T) {
	k := testInstance(testParams(), 5)
	first := k.nextTB()
	k.requeue(first)
	next := k.nextTB()
	if next != first {
		t.Error("preempted block not re-issued first (§3.1)")
	}
	if next.phase != tbQueued && next.sm != nil {
		t.Error("requeue left stale runtime state")
	}
}

func TestWantSMs(t *testing.T) {
	k := testInstance(testParams(), 10) // 10 blocks at 4/SM -> 3 SMs
	if got := k.wantSMs(); got != 3 {
		t.Errorf("want = %d, want 3", got)
	}
	// Dispatch everything: demand follows the queue down.
	for k.nextTB() != nil {
	}
	if got := k.wantSMs(); got != 0 {
		t.Errorf("fully dispatched want = %d (no used SMs tracked here)", got)
	}
}

func TestSampleCPIStatistics(t *testing.T) {
	k := testInstance(testParams(), 1)
	const n = 20000
	sum := 0.0
	for i := 0; i < n; i++ {
		cpi := k.sampleCPI()
		if cpi < 1 || cpi > 32 {
			t.Fatalf("CPI sample %v outside clamp [1, 32]", cpi)
		}
		sum += cpi
	}
	if mean := sum / n; math.Abs(mean-4)/4 > 0.05 {
		t.Errorf("CPI mean = %v, want ≈4", mean)
	}

	// Zero sigma: exact.
	p := testParams()
	p.CPISigma = 0
	kd := testInstance(p, 1)
	if cpi := kd.sampleCPI(); cpi != 4 {
		t.Errorf("sigma=0 CPI = %v", cpi)
	}
}

// TestSampleCPIMatchesLogNormalMean: sampling with the launch-time mu is
// bit-identical to drawing rng.LogNormalMean per block, including its
// results for a non-positive mean and a zero sigma.
func TestSampleCPIMatchesLogNormalMean(t *testing.T) {
	for _, c := range []struct{ base, sigma float64 }{{4, 0.3}, {1.7, 0.05}, {4, 0}, {0, 0.3}, {-2, 0.3}} {
		p := testParams()
		p.BaseCPI, p.CPISigma = c.base, c.sigma
		k := testInstance(p, 1)
		ref := rng.New(1)
		for i := 0; i < 1000; i++ {
			want := math.Min(math.Max(ref.LogNormalMean(c.base, c.sigma), c.base*0.25), c.base*8)
			if got := k.sampleCPI(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("BaseCPI %v sigma %v draw %d: sampleCPI = %v, LogNormalMean clamped = %v",
					c.base, c.sigma, i, got, want)
			}
		}
	}
}

func TestEstimateVisibility(t *testing.T) {
	cfg := gpu.DefaultConfig()
	k := testInstance(testParams(), 1)
	est := k.estimate(cfg)
	if est.HasInsts || est.HasCPI || est.HasIPC || est.HasCycles {
		t.Error("cold kernel claims measured statistics")
	}
	if est.SMSwitchCycles == 0 || est.TBSwitchCycles == 0 {
		t.Error("static switch timings missing")
	}
	if est.StrictIdempotent {
		t.Error("idempotence flag wrong")
	}

	k.est.Observe(1000, 4000)
	est = k.estimate(cfg)
	if !est.HasInsts || !est.HasCPI || !est.HasIPC || !est.HasCycles {
		t.Error("warm kernel missing statistics")
	}
	if est.AvgInstsPerTB != 1000 || est.AvgCPI != 4 || est.AvgCyclesPerTB != 4000 {
		t.Errorf("averages = %+v", est)
	}
	if want := 4.0 / 4.0; est.SMIPC != want {
		t.Errorf("SMIPC = %v, want %v", est.SMIPC, want)
	}
}

func TestThreadBlockProgressMath(t *testing.T) {
	tb := &threadBlock{kernel: testInstance(testParams(), 1), insts: 1000, breachInst: 800, cpi: 4, phase: tbRunning, startAt: 100}
	if got := tb.executedAt(100); got != 0 {
		t.Errorf("executedAt(start) = %d", got)
	}
	if got := tb.executedAt(500); got != 100 {
		t.Errorf("executedAt(+400cy @CPI4) = %d, want 100", got)
	}
	if got := tb.executedAt(1_000_000); got != 1000 {
		t.Errorf("executedAt(∞) = %d, want clamp at 1000", got)
	}
	if tb.breachedAt(500) {
		t.Error("breached at 10% progress")
	}
	if !tb.breachedAt(100 + 800*4) {
		t.Error("not breached at the breach instruction")
	}
	if tb.breachedAt(100 + 800*4 - 1) {
		t.Error("breached one cycle before the breach instruction")
	}
	if got := tb.remainingCycles(500); got != 3600 {
		t.Errorf("remainingCycles = %d, want 3600", got)
	}
	// A block frozen past its breach point (its context being saved)
	// stays breached: sync committed the progress that implies it.
	tb.sync(100 + 900*4)
	tb.frozen = true
	if !tb.breachedAt(1_000_000) {
		t.Error("frozen block past its breach point is not breached")
	}
	// A flush discards all progress, so the block is flushable again,
	// queued and at the start of its re-execution alike.
	tb.executed, tb.phase, tb.frozen = 0, tbQueued, false
	if tb.breachedAt(1_000_000) {
		t.Error("flushed block (executed = 0) is breached")
	}
	tb.phase, tb.startAt = tbRunning, 5000
	if tb.breachedAt(5000) {
		t.Error("flushed block breached at the start of its re-execution")
	}
}

// TestOneEventPerRunningBlock: a running block's only pending event is
// its completion. The breach follows from progress (breachedAt) and is
// never scheduled, so after a zero-length Run the queue holds exactly
// one event per resident block even though every block's breach point
// lies inside it.
func TestOneEventPerRunningBlock(t *testing.T) {
	cfg := gpu.DefaultConfig()
	cfg.NumSMs = 2
	sim := New(Options{Config: cfg, Policy: ChimeraPolicy{}, Constraint: units.FromMicroseconds(15), Seed: 1})
	// Non-idempotent, breaching halfway through each 1000-instruction block.
	sim.AddProcess(ProcessSpec{Name: "P", Launches: []LaunchSpec{tinyKernel("K", 1000, 4, 0.3, 4, 100, 0.5)}})
	sim.Run(0)
	resident := 0
	for _, sm := range sim.sms {
		for _, tb := range sm.resident {
			if tb.breachInst <= 0 || tb.breachInst >= tb.insts {
				t.Fatalf("block %d breaches at %d of %d, want inside the block", tb.index, tb.breachInst, tb.insts)
			}
		}
		resident += len(sm.resident)
	}
	if resident != 2*4 {
		t.Fatalf("%d resident blocks after Run(0), want 8 (2 SMs × 4)", resident)
	}
	if got := sim.Pending(); got != resident {
		t.Errorf("Pending() = %d with %d resident blocks, want one completion event each", got, resident)
	}
}

func TestThreadBlockSyncAccounting(t *testing.T) {
	k := testInstance(testParams(), 1)
	proc := &process{}
	k.process = proc
	tb := &threadBlock{kernel: k, insts: 1000, cpi: 4, phase: tbRunning, startAt: 0}
	tb.sync(400)
	if tb.executed != 100 || proc.issued != 100 {
		t.Errorf("sync accounting: executed=%d issued=%d", tb.executed, proc.issued)
	}
	if tb.startAt != 400 || tb.runCycles != 400 {
		t.Errorf("segment bookkeeping: startAt=%v runCycles=%v", tb.startAt, tb.runCycles)
	}
	// Frozen blocks must not accrue.
	tb.frozen = true
	tb.sync(800)
	if tb.executed != 100 {
		t.Error("frozen block accrued progress")
	}
}
