package engine

import (
	"context"
	"testing"

	"chimera/internal/gpu"
	"chimera/internal/preempt"
	"chimera/internal/trace"
	"chimera/internal/units"
)

// tinyKernel builds a small synthetic kernel for invariant tests.
func tinyKernel(label string, insts int64, cpi float64, sigma float64, tbsPerSM, grid int, breach float64) LaunchSpec {
	strict := breach >= 1
	if strict {
		breach = 1
	}
	return LaunchSpec{
		Params: gpu.KernelParams{
			Label: label, Benchmark: label, Name: label,
			InstsPerTB: insts, BaseCPI: cpi, CPISigma: sigma,
			TBsPerSM: tbsPerSM, ContextBytesPerTB: 16 * units.KB,
			GridSize: grid, StrictIdempotent: strict, BreachFraction: breach,
		},
		Grid: grid,
	}
}

func TestConservationSoloCompletion(t *testing.T) {
	// A finite kernel run to completion must account for exactly
	// grid × instsPerTB useful instructions and grid completions.
	l := tinyKernel("K", 10000, 4, 0.3, 4, 300, 1)
	sim := New(Options{Policy: ChimeraPolicy{}, Constraint: units.FromMicroseconds(15), Seed: 1})
	sim.AddProcess(ProcessSpec{Name: "P", Launches: []LaunchSpec{l}})
	sim.Run(units.FromMicroseconds(500_000))

	// No warm seed: the estimate holds exactly the completed blocks.
	if n := sim.estByLabel["K"].Estimate().Observations; n != 300 {
		t.Errorf("completed %d blocks, want 300", n)
	}
	want := int64(300 * 10000)
	if got := sim.ProcessUseful("P"); got != want {
		t.Errorf("useful = %d, want %d", got, want)
	}
	if w := sim.ProcessWasted("P"); w != 0 {
		t.Errorf("solo run wasted %d", w)
	}
}

func TestSwitchPreservesAllProgress(t *testing.T) {
	// Under the pure context-switch baseline nothing is ever thrown
	// away: both kernels complete every instruction exactly once.
	a := tinyKernel("A", 20000, 4, 0.2, 4, 240, 1)
	b := tinyKernel("B", 5000, 3, 0.2, 6, 360, 1)
	sim := New(Options{Policy: FixedPolicy{Technique: preempt.Switch}, Constraint: units.FromMicroseconds(30), Seed: 2, WarmStats: true})
	sim.AddProcess(ProcessSpec{Name: "PA", Launches: []LaunchSpec{a}})
	sim.AddProcess(ProcessSpec{Name: "PB", Launches: []LaunchSpec{b}})
	sim.Run(units.FromMicroseconds(500_000))

	if len(sim.Requests()) == 0 {
		t.Fatal("no preemptions happened; test is vacuous")
	}
	if got := sim.ProcessUseful("PA"); got != 240*20000 {
		t.Errorf("A useful = %d, want %d", got, 240*20000)
	}
	if got := sim.ProcessUseful("PB"); got != 360*5000 {
		t.Errorf("B useful = %d, want %d", got, 360*5000)
	}
	if w := sim.ProcessWasted("PA") + sim.ProcessWasted("PB"); w != 0 {
		t.Errorf("switch baseline wasted %d instructions", w)
	}
	for _, r := range sim.Requests() {
		mix := r.Mix()
		if mix[preempt.Flush] != 0 || mix[preempt.Drain] != 0 {
			t.Errorf("switch baseline executed non-switch preemptions: %v", mix)
		}
	}
}

func TestFlushReExecutesAndCompletes(t *testing.T) {
	// Flushing discards work but every block still completes; useful
	// instructions stay exact while issued exceeds useful. The periodic
	// task preempts every 1ms, so blocks are mid-flight when flushed.
	a := tinyKernel("A", 50000, 4, 0.1, 4, 960, 1)
	sim := New(Options{Policy: FixedPolicy{Technique: preempt.Flush}, Constraint: units.FromMicroseconds(15), Seed: 3, WarmStats: true})
	sim.AddProcess(ProcessSpec{Name: "PA", Launches: []LaunchSpec{a}})
	sim.AddPeriodicTask(PeriodicSpec{Period: units.FromMicroseconds(1000), Exec: units.FromMicroseconds(200), SMs: 15})
	sim.Run(units.FromMicroseconds(1_000_000))

	if got := sim.ProcessUseful("PA"); got != 960*50000 {
		t.Errorf("A useful = %d, want %d", got, 960*50000)
	}
	wasted := sim.ProcessWasted("PA")
	if wasted == 0 {
		t.Error("flush baseline wasted nothing; preemption never flushed?")
	}
	if issued := sim.ProcessIssued("PA"); issued != 960*50000+wasted {
		t.Errorf("issued %d ≠ useful %d + wasted %d", issued, 960*50000, wasted)
	}
}

func TestDrainNeverWastesNorRestores(t *testing.T) {
	a := tinyKernel("A", 20000, 4, 0.2, 4, 240, 1)
	b := tinyKernel("B", 5000, 3, 0.2, 6, 360, 1)
	sim := New(Options{Policy: FixedPolicy{Technique: preempt.Drain}, Constraint: units.FromMicroseconds(30), Seed: 4, WarmStats: true})
	sim.AddProcess(ProcessSpec{Name: "PA", Launches: []LaunchSpec{a}})
	sim.AddProcess(ProcessSpec{Name: "PB", Launches: []LaunchSpec{b}})
	sim.Run(units.FromMicroseconds(500_000))

	if w := sim.ProcessWasted("PA") + sim.ProcessWasted("PB"); w != 0 {
		t.Errorf("drain baseline wasted %d", w)
	}
	if got := sim.ProcessUseful("PA"); got != 240*20000 {
		t.Errorf("A useful = %d, want %d", got, 240*20000)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() (int64, int, units.Cycles) {
		sim := New(Options{Policy: ChimeraPolicy{}, Constraint: units.FromMicroseconds(15), Seed: 42, WarmStats: true})
		sim.AddProcess(ProcessSpec{Name: "P", Launches: launchesFor(t, "SAD"), Loop: true})
		sim.AddPeriodicTask(PeriodicSpec{Period: units.FromMicroseconds(1000), Exec: units.FromMicroseconds(200), SMs: 15})
		sim.Run(units.FromMicroseconds(8000))
		var lastLat units.Cycles
		for _, r := range sim.Requests() {
			lastLat = r.LatencyCycles
		}
		return sim.ProcessUseful("P"), len(sim.Requests()), lastLat
	}
	u1, n1, l1 := run()
	u2, n2, l2 := run()
	if u1 != u2 || n1 != n2 || l1 != l2 {
		t.Errorf("nondeterministic: (%d,%d,%v) vs (%d,%d,%v)", u1, n1, l1, u2, n2, l2)
	}
}

// TestDeterminismPeriodicDrainTrace is the stronger form: a real
// multi-kernel benchmark under the drain baseline with the §4.1
// periodic task, compared on the full preemption-request trace over a
// long window. Kernel finishes constantly return multi-SM sets to the
// free list here and drain latencies depend on exactly which SM's
// blocks are drained, so this catches ordering leaks (e.g.
// map-iteration order deciding which physical SMs a relaunched kernel
// lands on) that aggregate counters and short windows survive by
// chance. Regression test for a free-list ordering bug found via
// diverging Figure 6 drain columns.
func TestDeterminismPeriodicDrainTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	run := func() string {
		sim := New(Options{Policy: FixedPolicy{Technique: preempt.Drain}, Constraint: units.FromMicroseconds(15), Seed: 1, WarmStats: true})
		sim.AddProcess(ProcessSpec{Name: "BT", Launches: launchesFor(t, "BT"), Loop: true})
		sim.AddPeriodicTask(PeriodicSpec{Period: units.FromMicroseconds(1000), Exec: units.FromMicroseconds(200), SMs: 15})
		sim.Run(units.FromMicroseconds(120_000))
		out := ""
		for _, r := range sim.Requests() {
			out += r.At.String() + "/" + r.LatencyCycles.String() + " "
		}
		return out + "| useful=" + units.Cycles(sim.ProcessUseful("BT")).String()
	}
	first := run()
	for i := 0; i < 3; i++ {
		if again := run(); again != first {
			t.Fatalf("run %d diverged:\n%s\nvs\n%s", i+2, first, again)
		}
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	run := func(seed uint64) int64 {
		sim := New(Options{Policy: ChimeraPolicy{}, Constraint: units.FromMicroseconds(15), Seed: seed, WarmStats: true})
		sim.AddProcess(ProcessSpec{Name: "P", Launches: launchesFor(t, "SAD"), Loop: true})
		sim.Run(units.FromMicroseconds(3000))
		return sim.ProcessUseful("P")
	}
	if run(1) == run(2) {
		t.Error("different seeds produced identical work (CPI sampling inert?)")
	}
}

func TestFlushRequestsInstantOnIdempotentKernel(t *testing.T) {
	a := tinyKernel("A", 100000, 4, 0.2, 4, 480, 1) // strictly idempotent
	b := tinyKernel("B", 5000, 3, 0, 6, 180, 1)
	sim := New(Options{Policy: FixedPolicy{Technique: preempt.Flush}, Constraint: units.FromMicroseconds(15), Seed: 5, WarmStats: true})
	sim.AddProcess(ProcessSpec{Name: "PA", Launches: []LaunchSpec{a}, Loop: true})
	sim.AddProcess(ProcessSpec{Name: "PB", Launches: []LaunchSpec{b}, Loop: true})
	sim.Run(units.FromMicroseconds(100_000))

	if len(sim.Requests()) == 0 {
		t.Fatal("no requests")
	}
	for _, r := range sim.Requests() {
		if r.Victim != "A" {
			continue
		}
		if r.Completed && r.LatencyCycles != 0 {
			t.Errorf("flush of idempotent kernel took %v, want 0", r.LatencyCycles)
		}
	}
}

func TestSwitchLatencyMatchesContextSize(t *testing.T) {
	// A pure-switch preemption of an SM with 4 resident blocks of 16kB
	// each serializes 64kB at the SM's bandwidth share: ≈11.1µs.
	a := tinyKernel("A", 1_000_000, 4, 0, 4, 120, 1) // long blocks: all 4 resident mid-flight
	b := tinyKernel("B", 5000, 3, 0, 6, 180, 1)
	sim := New(Options{Policy: FixedPolicy{Technique: preempt.Switch}, Constraint: units.FromMicroseconds(30), Seed: 6, WarmStats: true})
	sim.AddProcess(ProcessSpec{Name: "PA", Launches: []LaunchSpec{a}, Loop: true})
	sim.AddProcess(ProcessSpec{Name: "PB", Launches: []LaunchSpec{b}, Loop: true})
	sim.Run(units.FromMicroseconds(50_000))

	cfg := sim.Config()
	wantPerTB := cfg.ContextTransferCycles(16 * units.KB)
	checked := false
	for _, r := range sim.Requests() {
		if r.Victim != "A" || !r.Completed {
			continue
		}
		checked = true
		want := wantPerTB * 4
		diff := int64(r.LatencyCycles) - int64(want)
		if diff < -int64(want)/10 || diff > int64(want)/10 {
			t.Errorf("switch latency %v, want ≈%v (4 × 16kB save)", r.LatencyCycles, want)
		}
	}
	if !checked {
		t.Fatal("no completed switch request against A")
	}
}

func TestKillReturnsSMsToBenchmark(t *testing.T) {
	// Drain on million-cycle blocks always misses the 15µs deadline;
	// the task is killed and the benchmark must keep near-solo
	// throughput.
	a := tinyKernel("A", 1_000_000, 4, 0, 4, 120, 1)
	sim := New(Options{Policy: FixedPolicy{Technique: preempt.Drain}, Constraint: units.FromMicroseconds(15), Seed: 7, WarmStats: true})
	sim.AddProcess(ProcessSpec{Name: "PA", Launches: []LaunchSpec{a}, Loop: true})
	sim.AddPeriodicTask(PeriodicSpec{Period: units.FromMicroseconds(1000), Exec: units.FromMicroseconds(200), SMs: 15})
	window := units.FromMicroseconds(20_000)
	sim.Run(window)

	recs := sim.PeriodRecords()
	if len(recs) == 0 {
		t.Fatal("no periods")
	}
	for i, r := range recs {
		if !r.Violated {
			t.Errorf("period %d unexpectedly met the deadline", i)
		}
	}
	// 120 blocks at CPI 4 -> 30 insts/cycle solo. The drained slots idle
	// only ~15µs per 1ms period, so ≥95% of solo throughput survives.
	useful := sim.ProcessUseful("PA")
	solo := int64(30) * int64(window)
	if useful < solo*95/100 {
		t.Errorf("killed-drain run kept only %d/%d useful insts", useful, solo)
	}
}

func TestBreachBlocksFallBackToWaiting(t *testing.T) {
	// A kernel breaching at 10% progress, preempted once per
	// millisecond mid-flight (block execution ≈286µs): most blocks are
	// past their breach point at request time, so the flush baseline
	// must fall back to waiting for them (recorded as drains).
	a := tinyKernel("A", 100000, 4, 0, 4, 1920, 0.1)
	sim := New(Options{Policy: FixedPolicy{Technique: preempt.Flush}, Constraint: units.FromMicroseconds(15), Seed: 8, WarmStats: true})
	sim.AddProcess(ProcessSpec{Name: "PA", Launches: []LaunchSpec{a}, Loop: true})
	sim.AddPeriodicTask(PeriodicSpec{Period: units.FromMicroseconds(1000), Exec: units.FromMicroseconds(200), SMs: 15})
	sim.Run(units.FromMicroseconds(50_000))

	var flushes, waits int
	for _, r := range sim.Requests() {
		if r.Victim != "A" {
			continue
		}
		mix := r.Mix()
		flushes += mix[preempt.Flush]
		waits += mix[preempt.Drain]
	}
	if waits == 0 {
		t.Fatal("no flush fallbacks recorded on a mostly-breached kernel")
	}
	if flushes > waits {
		t.Errorf("flushes (%d) outnumber waits (%d) on a 10%%-breach kernel", flushes, waits)
	}
}

func TestUsefulNeverExceedsIssued(t *testing.T) {
	sim := New(Options{Policy: ChimeraPolicy{}, Constraint: units.FromMicroseconds(15), Seed: 9, WarmStats: true})
	sim.AddProcess(ProcessSpec{Name: "P", Launches: launchesFor(t, "FWT"), Loop: true})
	sim.AddPeriodicTask(PeriodicSpec{Period: units.FromMicroseconds(1000), Exec: units.FromMicroseconds(200), SMs: 15})
	sim.Run(units.FromMicroseconds(10_000))
	useful, issued := sim.ProcessUseful("P"), sim.ProcessIssued("P")
	if useful > issued || useful < 0 {
		t.Errorf("useful %d vs issued %d", useful, issued)
	}
}

func TestSerialFCFSOrdering(t *testing.T) {
	// Under FCFS, B's first kernel cannot start before A's first kernel
	// finished: with a window shorter than A's kernel, B gets nothing.
	a := tinyKernel("A", 1_000_000, 4, 0, 4, 120, 1) // ~2.9ms
	b := tinyKernel("B", 1000, 3, 0, 6, 180, 1)
	sim := New(Options{Policy: FCFS{}, Seed: 10})
	sim.AddProcess(ProcessSpec{Name: "PA", Launches: []LaunchSpec{a}, Loop: true})
	sim.AddProcess(ProcessSpec{Name: "PB", Launches: []LaunchSpec{b}, Loop: true})
	sim.Run(units.FromMicroseconds(2000))
	if got := sim.ProcessUseful("PB"); got != 0 {
		t.Errorf("B ran %d insts while A's kernel still owned the GPU", got)
	}
	if got := sim.ProcessUseful("PA"); got == 0 {
		t.Error("A made no progress")
	}
}

func TestNoPolicyNoPreemption(t *testing.T) {
	// Without a policy (FCFS or preemptive) kernels still share free
	// SMs spatially, but no preemption request can ever be issued.
	a := tinyKernel("A", 50000, 4, 0, 4, 480, 1)
	b := tinyKernel("B", 5000, 3, 0, 6, 180, 1)
	sim := New(Options{Seed: 11})
	sim.AddProcess(ProcessSpec{Name: "PA", Launches: []LaunchSpec{a}, Loop: true})
	sim.AddProcess(ProcessSpec{Name: "PB", Launches: []LaunchSpec{b}, Loop: true})
	sim.Run(units.FromMicroseconds(10_000))
	if n := len(sim.Requests()); n != 0 {
		t.Errorf("policy-less run issued %d requests", n)
	}
}

func TestPeriodRecordsTrimmed(t *testing.T) {
	sim := New(Options{Policy: ChimeraPolicy{}, Constraint: units.FromMicroseconds(15), Seed: 12, WarmStats: true})
	sim.AddProcess(ProcessSpec{Name: "P", Launches: launchesFor(t, "BS"), Loop: true})
	sim.AddPeriodicTask(PeriodicSpec{Period: units.FromMicroseconds(1000), Exec: units.FromMicroseconds(200), SMs: 15})
	sim.Run(units.FromMicroseconds(4500))
	// Fires at 1000, 2000, 3000, 4000; all deadline checks (≤ +15µs)
	// fall inside the window.
	if got := len(sim.PeriodRecords()); got != 4 {
		t.Errorf("got %d period records, want 4", got)
	}
}

func TestAddProcessAfterRunPanics(t *testing.T) {
	sim := New(Options{Seed: 13})
	sim.AddProcess(ProcessSpec{Name: "P", Launches: []LaunchSpec{tinyKernel("A", 1000, 1, 0, 1, 1, 1)}})
	sim.Run(units.FromMicroseconds(10))
	defer func() {
		if recover() == nil {
			t.Error("AddProcess after Run did not panic")
		}
	}()
	sim.AddProcess(ProcessSpec{Name: "Q", Launches: []LaunchSpec{tinyKernel("B", 1000, 1, 0, 1, 1, 1)}})
}

// TestRunTwicePanics: a simulation runs once, whether its first run
// completed or was cancelled (a cancelled run cannot be resumed).
func TestRunTwicePanics(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	firsts := []struct {
		name string
		run  func(*Simulation)
	}{
		{"completed", func(sim *Simulation) { sim.Run(units.FromMicroseconds(10)) }},
		{"cancelled", func(sim *Simulation) { _ = sim.RunContext(ctx, units.FromMicroseconds(10)) }},
	}
	for _, first := range firsts {
		sim := New(Options{Seed: 14})
		sim.AddProcess(ProcessSpec{Name: "P", Launches: []LaunchSpec{tinyKernel("A", 1000, 1, 0, 1, 1, 1)}})
		first.run(sim)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("second Run after a %s run did not panic", first.name)
				}
			}()
			sim.Run(units.FromMicroseconds(20))
		}()
	}
}

func TestTracerReceivesEvents(t *testing.T) {
	col := trace.NewCollector()
	sim := New(Options{
		Policy:     ChimeraPolicy{},
		Constraint: units.FromMicroseconds(15),
		Seed:       15,
		WarmStats:  true,
		Tracer:     col,
	})
	sim.AddProcess(ProcessSpec{Name: "P", Launches: launchesFor(t, "BS"), Loop: true})
	sim.AddPeriodicTask(PeriodicSpec{Period: units.FromMicroseconds(1000), Exec: units.FromMicroseconds(200), SMs: 15})
	sim.Run(units.FromMicroseconds(5000))

	counts := make(map[trace.Kind]int)
	for _, e := range col.Events() {
		counts[e.Kind]++
	}
	if counts[trace.KernelLaunch] == 0 {
		t.Error("no launch events")
	}
	if counts[trace.Request] == 0 {
		t.Error("no request events")
	}
	if counts[trace.Handover] == 0 {
		t.Error("no handover events")
	}
	if counts[trace.FlushTB]+counts[trace.DrainTB]+counts[trace.SaveTB] == 0 {
		t.Error("no per-block preemption events")
	}
	// Handover events must match total per-request SM counts that completed.
	var arrived int
	for _, r := range sim.Requests() {
		if r.Completed {
			arrived += r.NumSMs
		}
	}
	if counts[trace.Handover] < arrived {
		t.Errorf("handover events %d < completed request SMs %d", counts[trace.Handover], arrived)
	}
}

func TestSMBusyFraction(t *testing.T) {
	// A saturated solo run keeps every SM busy nearly the whole window;
	// a size-bound single-block kernel keeps ~1/30 of the machine busy.
	window := units.FromMicroseconds(5000)

	sat := New(Options{Seed: 30, WarmStats: true})
	sat.AddProcess(ProcessSpec{Name: "P", Launches: []LaunchSpec{tinyKernel("A", 50000, 4, 0.1, 4, 4800, 1)}, Loop: true})
	sat.Run(window)
	if f := sat.SMBusyFraction(window); f < 0.95 || f > 1.0001 {
		t.Errorf("saturated busy fraction = %v", f)
	}

	tiny := New(Options{Seed: 31, WarmStats: true})
	spec := tinyKernel("B", 50000, 4, 0, 1, 1, 1)
	tiny.AddProcess(ProcessSpec{Name: "P", Launches: []LaunchSpec{spec}, Loop: true})
	tiny.Run(window)
	if f := tiny.SMBusyFraction(window); f < 0.02 || f > 0.05 {
		t.Errorf("single-block busy fraction = %v, want ≈1/30", f)
	}
}

func TestHeadroomTightensPlanning(t *testing.T) {
	// With a headroom equal to most of the constraint, Chimera must plan
	// against a much tighter bound: techniques whose latency fits 15µs
	// but not 15µs−12µs (e.g. SAD's ~9.7µs context switch) disappear
	// from the mix, replaced by flushing.
	run := func(headroom float64) [preempt.NumTechniques]int {
		sim := New(Options{
			Policy:     ChimeraPolicy{},
			Constraint: units.FromMicroseconds(15),
			Headroom:   units.FromMicroseconds(headroom),
			Seed:       40,
			WarmStats:  true,
		})
		sim.AddProcess(ProcessSpec{Name: "P", Launches: launchesFor(t, "SAD"), Loop: true})
		sim.AddPeriodicTask(PeriodicSpec{Period: units.FromMicroseconds(1000), Exec: units.FromMicroseconds(200), SMs: 15})
		sim.Run(units.FromMicroseconds(10_000))
		var mix [preempt.NumTechniques]int
		for _, r := range sim.Requests() {
			m := r.Mix()
			for i, n := range m {
				mix[i] += n
			}
		}
		return mix
	}
	loose := run(0)
	tight := run(12)
	if loose[preempt.Switch] == 0 {
		t.Fatal("baseline run never switched; test premise broken")
	}
	if tight[preempt.Switch] != 0 {
		t.Errorf("12µs headroom still produced %d switches (bound should exclude 9.7µs saves)", tight[preempt.Switch])
	}
	if tight[preempt.Flush] <= loose[preempt.Flush] {
		t.Errorf("headroom should push the mix toward flushing: %v vs %v", tight, loose)
	}
}
