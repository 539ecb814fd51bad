package engine

import (
	"strings"
	"testing"

	"chimera/internal/preempt"
	"chimera/internal/units"
)

func TestPolicyNames(t *testing.T) {
	cases := []struct {
		policy Policy
		want   string
	}{
		{ChimeraPolicy{}, "Chimera"},
		{ChimeraPolicy{StrictIdempotence: true}, "Chimera(strict)"},
		{ChimeraPolicy{OptimisticCold: true}, "Chimera(optimistic)"},
		{ChimeraPolicy{CycleBased: true}, "Chimera(cycle-est)"},
		{ChimeraPolicy{PerSMUniform: true}, "Chimera(per-SM)"},
		{FixedPolicy{Technique: preempt.Switch}, "Switch"},
		{FixedPolicy{Technique: preempt.Flush}, "Flush"},
		{FixedPolicy{Technique: preempt.Flush, StrictIdempotence: true}, "Flush(strict)"},
		{FCFS{}, "FCFS"},
	}
	for _, c := range cases {
		if got := c.policy.Name(); got != c.want {
			t.Errorf("Name() = %q, want %q", got, c.want)
		}
	}
	if (ChimeraPolicy{StrictIdempotence: true}).Relaxed() {
		t.Error("strict policy claims relaxed")
	}
	if !(FixedPolicy{Technique: preempt.Drain}).Relaxed() {
		t.Error("drain baseline should default to relaxed")
	}
}

func TestStrictFlushLegality(t *testing.T) {
	// Under a strict-idempotence policy, flushLegal consults the
	// kernel-level verdict, not the per-block breach flag.
	sim := New(Options{Policy: FixedPolicy{Technique: preempt.Flush, StrictIdempotence: true}, Seed: 50})
	pStrict := testParams()
	pStrict.StrictIdempotent = true
	pStrict.BreachFraction = 1
	kIdem := testInstance(pStrict, 1)
	kNon := testInstance(testParams(), 1)
	tbIdem := &threadBlock{kernel: kIdem, insts: 1000, breachInst: 1000}
	tbNon := &threadBlock{kernel: kNon, insts: 1000, breachInst: 800}
	if !sim.flushLegal(tbIdem, 0) {
		t.Error("strict policy rejected a strictly idempotent kernel")
	}
	if sim.flushLegal(tbNon, 0) {
		t.Error("strict policy flushed a non-idempotent kernel")
	}
}

func TestProcessAccessorsUnknownName(t *testing.T) {
	sim := New(Options{Seed: 51})
	sim.AddProcess(ProcessSpec{Name: "P", Launches: []LaunchSpec{tinyKernel("A", 1000, 1, 0, 1, 1, 1)}})
	sim.Run(units.FromMicroseconds(100))
	if sim.ProcessUseful("nope") != 0 || sim.ProcessIssued("nope") != 0 || sim.ProcessWasted("nope") != 0 {
		t.Error("unknown process should report zeros")
	}
	if sim.Now() != units.FromMicroseconds(100) {
		t.Errorf("Now() = %v", sim.Now())
	}
	if sim.PeriodRecords() != nil {
		t.Error("no periodic task should mean nil records")
	}
}

func TestAddPeriodicTaskValidation(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	expectPanic("no background process", func() {
		sim := New(Options{Seed: 52})
		sim.AddPeriodicTask(PeriodicSpec{Period: 1000, Exec: 100, SMs: 15})
	})
	expectPanic("SMs out of range", func() {
		sim := New(Options{Seed: 53})
		sim.AddProcess(ProcessSpec{Name: "P", Launches: []LaunchSpec{tinyKernel("A", 1000, 1, 0, 1, 1, 1)}})
		sim.AddPeriodicTask(PeriodicSpec{Period: 1000, Exec: 100, SMs: 99})
	})
	expectPanic("duplicate task", func() {
		sim := New(Options{Seed: 54})
		sim.AddProcess(ProcessSpec{Name: "P", Launches: []LaunchSpec{tinyKernel("A", 1000, 1, 0, 1, 1, 1)}})
		sim.AddPeriodicTask(PeriodicSpec{Period: 1000, Exec: 100, SMs: 5})
		sim.AddPeriodicTask(PeriodicSpec{Period: 1000, Exec: 100, SMs: 5})
	})
	expectPanic("zero exec", func() {
		sim := New(Options{Seed: 55})
		sim.AddProcess(ProcessSpec{Name: "P", Launches: []LaunchSpec{tinyKernel("A", 1000, 1, 0, 1, 1, 1)}})
		sim.AddPeriodicTask(PeriodicSpec{Period: 1000, Exec: 0, SMs: 5})
	})
}

func TestKillDuringSaveResumesBlocks(t *testing.T) {
	// Switch baseline with saves (~11µs for 4×16kB) longer than the 5µs
	// constraint: the task is killed mid-save every period, the frozen
	// blocks resume, and the benchmark still completes every block.
	a := tinyKernel("A", 100000, 4, 0, 4, 960, 1)
	sim := New(Options{
		Policy:     FixedPolicy{Technique: preempt.Switch},
		Constraint: units.FromMicroseconds(5),
		Seed:       56,
		WarmStats:  true,
	})
	sim.AddProcess(ProcessSpec{Name: "PA", Launches: []LaunchSpec{a}})
	sim.AddPeriodicTask(PeriodicSpec{Period: units.FromMicroseconds(1000), Exec: units.FromMicroseconds(200), SMs: 15})
	sim.Run(units.FromMicroseconds(2_000_000))

	recs := sim.PeriodRecords()
	if len(recs) == 0 {
		t.Fatal("no periods")
	}
	violations := 0
	for _, r := range recs {
		if r.Violated {
			violations++
		}
	}
	if violations == 0 {
		t.Fatal("expected deadline kills mid-save")
	}
	if got := sim.ProcessUseful("PA"); got != 960*100000 {
		t.Errorf("useful = %d, want %d (kill-during-save lost work)", got, 960*100000)
	}
}

func TestContentionWithKills(t *testing.T) {
	// Contention accounting must stay balanced across cancelled saves:
	// transfers end via their scheduled events even when the handover
	// was cancelled, so the run finishes without endTransfer underflow.
	a := tinyKernel("A", 100000, 4, 0, 4, 960, 1)
	sim := New(Options{
		Policy:         FixedPolicy{Technique: preempt.Switch},
		Constraint:     units.FromMicroseconds(5),
		Seed:           57,
		WarmStats:      true,
		ContentionBeta: 1,
	})
	sim.AddProcess(ProcessSpec{Name: "PA", Launches: []LaunchSpec{a}})
	sim.AddPeriodicTask(PeriodicSpec{Period: units.FromMicroseconds(1000), Exec: units.FromMicroseconds(200), SMs: 15})
	sim.Run(units.FromMicroseconds(2_000_000))
	if got := sim.ProcessUseful("PA"); got != 960*100000 {
		t.Errorf("useful = %d, want %d", got, 960*100000)
	}
	if sim.activeTransfers != 0 {
		t.Errorf("unbalanced transfers at end: %d", sim.activeTransfers)
	}
}

func TestSerialRunsAllLaunchesInOrder(t *testing.T) {
	// FCFS interleaves the two processes' launch queues by arrival:
	// A0 (launched at 0), B0 (launched at 0), then A1 (launched when A0
	// finished, i.e. after B0 entered the queue)...
	sim := New(Options{Policy: FCFS{}, Seed: 58})
	a := tinyKernel("A", 1000, 1, 0, 2, 60, 1)
	b := tinyKernel("B", 1000, 1, 0, 2, 60, 1)
	sim.AddProcess(ProcessSpec{Name: "PA", Launches: []LaunchSpec{a, a}})
	sim.AddProcess(ProcessSpec{Name: "PB", Launches: []LaunchSpec{b}})
	sim.Run(units.FromMicroseconds(50_000))
	if got := sim.ProcessUseful("PA"); got != 2*60*1000 {
		t.Errorf("A useful = %d", got)
	}
	if got := sim.ProcessUseful("PB"); got != 60*1000 {
		t.Errorf("B useful = %d", got)
	}
}

func TestRemainingCyclesZeroWhenDone(t *testing.T) {
	tb := &threadBlock{insts: 100, cpi: 4, phase: tbRunning, startAt: 0}
	if got := tb.remainingCycles(10_000); got != 0 {
		t.Errorf("remainingCycles past completion = %d", got)
	}
}

func TestPlanStringInTrace(t *testing.T) {
	p := preempt.SMPlan{SM: 2, TBs: []preempt.TBPlan{{Index: 1, Technique: preempt.Flush}}}
	if !strings.Contains(p.String(), "SM2") {
		t.Error("plan string broken")
	}
}

func TestProcessWeights(t *testing.T) {
	// Two identical saturating kernels at weights 3:1 should settle near
	// a 3:1 SM split — visible in their useful-instruction ratio.
	a := tinyKernel("A", 20000, 4, 0, 4, 100000, 1)
	b := tinyKernel("B", 20000, 4, 0, 4, 100000, 1)
	sim := New(Options{Policy: ChimeraPolicy{}, Constraint: units.FromMicroseconds(30), Seed: 60, WarmStats: true})
	sim.AddProcess(ProcessSpec{Name: "PA", Launches: []LaunchSpec{a}, Loop: true, Weight: 3})
	sim.AddProcess(ProcessSpec{Name: "PB", Launches: []LaunchSpec{b}, Loop: true, Weight: 1})
	sim.Run(units.FromMicroseconds(20_000))

	ua, ub := sim.ProcessUseful("PA"), sim.ProcessUseful("PB")
	if ub == 0 {
		t.Fatal("weight-1 process starved")
	}
	ratio := float64(ua) / float64(ub)
	// 3:1 split of 30 SMs is 22-23 vs 7-8 -> ratio ≈ 2.8-3.3.
	if ratio < 2.3 || ratio > 3.8 {
		t.Errorf("useful ratio = %.2f, want ≈3 for 3:1 weights", ratio)
	}
}

func TestProcessPriorities(t *testing.T) {
	// A high-priority process with a bounded demand takes it fully; the
	// low-priority one gets the rest.
	hi := tinyKernel("H", 20000, 4, 0, 4, 40, 1) // wants 10 SMs
	lo := tinyKernel("L", 20000, 4, 0, 4, 100000, 1)
	sim := New(Options{Policy: ChimeraPolicy{}, Constraint: units.FromMicroseconds(30), Seed: 61, WarmStats: true})
	sim.AddProcess(ProcessSpec{Name: "PL", Launches: []LaunchSpec{lo}, Loop: true})
	sim.AddProcess(ProcessSpec{Name: "PH", Launches: []LaunchSpec{hi}, Loop: true, Priority: 5})
	sim.Run(units.FromMicroseconds(10_000))

	// The high-priority kernel re-launches continuously on its 10 SMs:
	// its throughput should be ~10 SMs' worth (10 insts/cycle at CPI 4
	// with 4 blocks/SM) sustained over the window.
	uh := sim.ProcessUseful("PH")
	window := float64(units.FromMicroseconds(10_000))
	rate := float64(uh) / window
	if rate < 8 {
		t.Errorf("high-priority rate %.2f insts/cycle, want ≈10 (full demand)", rate)
	}
}
