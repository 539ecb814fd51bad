package engine

import (
	"testing"

	"chimera/internal/kernels"
	"chimera/internal/preempt"
	"chimera/internal/units"
)

// launchesFor converts a catalog benchmark into engine launch specs.
func launchesFor(t testing.TB, name string) []LaunchSpec {
	t.Helper()
	cat := kernels.Load()
	b, err := cat.Benchmark(name)
	if err != nil {
		t.Fatalf("benchmark %s: %v", name, err)
	}
	var out []LaunchSpec
	for _, l := range b.Launches {
		spec, err := cat.Kernel(l.Label)
		if err != nil {
			t.Fatalf("kernel %s: %v", l.Label, err)
		}
		out = append(out, LaunchSpec{Params: spec.Params, Grid: l.Grid})
	}
	return out
}

func TestSoloBenchmarkMakesProgress(t *testing.T) {
	sim := New(Options{Policy: ChimeraPolicy{}, Constraint: units.FromMicroseconds(15), Seed: 1})
	sim.AddProcess(ProcessSpec{Name: "BS", Launches: launchesFor(t, "BS"), Loop: true})
	window := units.FromMicroseconds(5000)
	sim.Run(window)

	useful := sim.ProcessUseful("BS")
	if useful <= 0 {
		t.Fatalf("no useful instructions executed: %d", useful)
	}
	if wasted := sim.ProcessWasted("BS"); wasted != 0 {
		t.Errorf("solo run wasted %d instructions; no preemption should occur", wasted)
	}
	if n := len(sim.Requests()); n != 0 {
		t.Errorf("solo run issued %d preemption requests", n)
	}
	// Sanity: the device should be near-saturated. BS.0 runs 120
	// concurrent blocks; useful rate per cycle should be near the
	// aggregate IPC (30 SMs x 1 IPC at CPI 4, 4 TBs/SM).
	rate := float64(useful) / float64(window)
	if rate < 15 || rate > 45 {
		t.Errorf("implausible aggregate rate %.2f insts/cycle", rate)
	}
}

func TestPeriodicTaskWithChimera(t *testing.T) {
	sim := New(Options{Policy: ChimeraPolicy{}, Constraint: units.FromMicroseconds(15), Seed: 2})
	sim.AddProcess(ProcessSpec{Name: "BS", Launches: launchesFor(t, "BS"), Loop: true})
	sim.AddPeriodicTask(PeriodicSpec{
		Period: units.FromMicroseconds(1000),
		Exec:   units.FromMicroseconds(200),
		SMs:    15,
	})
	sim.Run(units.FromMicroseconds(10_000))

	recs := sim.PeriodRecords()
	if len(recs) < 8 {
		t.Fatalf("expected ~9 periods, got %d", len(recs))
	}
	violations := 0
	for _, r := range recs {
		if r.Violated {
			violations++
		}
	}
	// BS is strictly idempotent: Chimera can always flush, so no
	// violations are expected at a 15us constraint.
	if violations != 0 {
		t.Errorf("Chimera violated %d/%d deadlines on idempotent BS", violations, len(recs))
	}
	if len(sim.Requests()) == 0 {
		t.Fatalf("periodic task issued no preemption requests")
	}
}

func TestPeriodicTaskSwitchBaselineViolates(t *testing.T) {
	// BS.0's context switch time (~16.6us) exceeds the 15us constraint,
	// so the pure context-switch baseline must violate every deadline.
	sim := New(Options{Policy: FixedPolicy{Technique: preempt.Switch}, Constraint: units.FromMicroseconds(15), Seed: 3})
	sim.AddProcess(ProcessSpec{Name: "BS", Launches: launchesFor(t, "BS"), Loop: true})
	sim.AddPeriodicTask(PeriodicSpec{
		Period: units.FromMicroseconds(1000),
		Exec:   units.FromMicroseconds(200),
		SMs:    15,
	})
	sim.Run(units.FromMicroseconds(10_000))

	recs := sim.PeriodRecords()
	if len(recs) == 0 {
		t.Fatal("no periods recorded")
	}
	violated := 0
	for _, r := range recs {
		if r.Violated {
			violated++
		}
	}
	// A period can occasionally be satisfied from free SMs alone (the
	// benchmark kernel's tail releases SMs), so demand a strong majority
	// rather than unanimity.
	if violated < len(recs)*7/10 {
		t.Errorf("switch baseline violated only %d/%d deadlines", violated, len(recs))
	}
}

func TestPeriodicTaskDrainBaselineOnLongKernel(t *testing.T) {
	// CP.0's thread blocks run ~1.5ms: draining cannot hand SMs over
	// within 15us.
	sim := New(Options{Policy: FixedPolicy{Technique: preempt.Drain}, Constraint: units.FromMicroseconds(15), Seed: 4})
	sim.AddProcess(ProcessSpec{Name: "CP", Launches: launchesFor(t, "CP"), Loop: true})
	sim.AddPeriodicTask(PeriodicSpec{
		Period: units.FromMicroseconds(1000),
		Exec:   units.FromMicroseconds(200),
		SMs:    15,
	})
	sim.Run(units.FromMicroseconds(10_000))

	recs := sim.PeriodRecords()
	if len(recs) == 0 {
		t.Fatal("no periods recorded")
	}
	violated := 0
	for _, r := range recs {
		if r.Violated {
			violated++
		}
	}
	if violated < len(recs)*3/4 {
		t.Errorf("drain baseline violated only %d/%d deadlines on CP", violated, len(recs))
	}
}

func TestSerialFCFSNeverPreempts(t *testing.T) {
	// BP and HS launch sub-millisecond kernels, so FCFS alternates both
	// processes within the window.
	sim := New(Options{Policy: FCFS{}, Seed: 5})
	sim.AddProcess(ProcessSpec{Name: "BP", Launches: launchesFor(t, "BP"), Loop: true})
	sim.AddProcess(ProcessSpec{Name: "HS", Launches: launchesFor(t, "HS"), Loop: true})
	sim.Run(units.FromMicroseconds(5000))

	if n := len(sim.Requests()); n != 0 {
		t.Fatalf("FCFS baseline issued %d preemption requests", n)
	}
	a, b := sim.ProcessUseful("BP"), sim.ProcessUseful("HS")
	if a <= 0 || b <= 0 {
		t.Fatalf("both processes should make progress under FCFS: BP=%d HS=%d", a, b)
	}
}

func TestPairPreemptiveSharing(t *testing.T) {
	sim := New(Options{Policy: ChimeraPolicy{}, Constraint: units.FromMicroseconds(30), Seed: 6})
	sim.AddProcess(ProcessSpec{Name: "LUD", Launches: launchesFor(t, "LUD"), Loop: true})
	sim.AddProcess(ProcessSpec{Name: "MUM", Launches: launchesFor(t, "MUM"), Loop: true})
	sim.Run(units.FromMicroseconds(20_000))

	lud, mum := sim.ProcessUseful("LUD"), sim.ProcessUseful("MUM")
	if lud <= 0 || mum <= 0 {
		t.Fatalf("both processes should progress: LUD=%d MUM=%d", lud, mum)
	}
}
