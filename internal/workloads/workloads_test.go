package workloads

import (
	"context"
	"math"
	"reflect"
	"testing"

	"chimera/internal/engine"
	"chimera/internal/gpu"
	"chimera/internal/jobspec"
	"chimera/internal/kernels"
	"chimera/internal/simjob"
	"chimera/internal/units"
)

func newTestRunner(t *testing.T, windowUs, constraintUs float64) *Runner {
	t.Helper()
	r, err := NewRunner(units.FromMicroseconds(windowUs), units.FromMicroseconds(constraintUs), 7)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// mustRun executes spec on e and fails the test on error.
func mustRun(t *testing.T, e *Executor, spec jobspec.Spec) (SpecResult, bool) {
	t.Helper()
	res, executed, err := e.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("%s %s: %v", spec.Kind, spec.Benchmarks(), err)
	}
	return res, executed
}

func TestNewRunnerValidation(t *testing.T) {
	if _, err := NewRunner(0, units.FromMicroseconds(15), 1); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := NewRunner(units.FromMicroseconds(100), 0, 1); err == nil {
		t.Error("zero constraint accepted")
	}
}

func TestLaunchesRejectsUnknownKernel(t *testing.T) {
	cat := kernels.Load()
	bad := &kernels.Benchmark{Name: "X", Launches: []kernels.Launch{{Label: "NOPE.0", Grid: 1}}}
	if _, err := Launches(cat, bad); err == nil {
		t.Error("unknown kernel accepted")
	}
}

func TestSoloRateMemoized(t *testing.T) {
	e := NewExecutor(newTestRunner(t, 3000, 15))
	spec := jobspec.Solo("HS").WithWindowUs(3000).WithSeed(7)
	res, _ := mustRun(t, e, spec)
	again, executed := mustRun(t, e, spec)
	a, b := res.SoloRate, again.SoloRate
	if a != b || executed {
		t.Errorf("memoized solo rate changed or re-ran: %v vs %v (executed=%v)", a, b, executed)
	}
	if a <= 0 || a > 240 {
		t.Errorf("implausible solo rate %v insts/cycle", a)
	}
}

// TestSoloRunIgnoresUnkeyedFields pins the premise of Runner.solo: a
// solo run simulated under any constraint, with warm statistics on or
// off and (Table 2 catalog) contention β 0 or 1, yields a rate
// bit-identical to the one soloRate computes with those fields fixed,
// for every benchmark of both catalogs.
func TestSoloRunIgnoresUnkeyedFields(t *testing.T) {
	ctx := context.Background()
	window := units.FromMicroseconds(1000)
	for _, c := range []struct {
		name  string
		cat   *kernels.Catalog
		betas []float64
	}{
		{"table2", kernels.Load(), []float64{0, 1}},
		{"calibrated", kernels.LoadCalibrated(), []float64{0}},
	} {
		for _, bench := range c.cat.BenchmarkNames() {
			var want float64
			for _, constraintUs := range []float64{5, 15, 30, 100} {
				for _, warm := range []bool{true, false} {
					for _, beta := range c.betas {
						r, err := NewRunnerWith(c.cat, window, units.FromMicroseconds(constraintUs), 7)
						if err != nil {
							t.Fatal(err)
						}
						r.UsePool(simjob.NewPool(1, simjob.NewCache()))
						r.Warm, r.Contention = warm, beta
						if want == 0 {
							if want, _, err = r.soloRate(ctx, bench); err != nil {
								t.Fatalf("%s %s: %v", c.name, bench, err)
							}
						}
						sim, err := r.simulate(ctx, simjob.KindSolo, []string{bench}, engine.ChimeraPolicy{}, nil)
						if err != nil {
							t.Fatalf("%s %s: %v", c.name, bench, err)
						}
						got := float64(sim.ProcessUseful(bench)) / float64(window)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Errorf("%s %s at %g µs, warm %v, β %g: rate %v, want %v",
								c.name, bench, constraintUs, warm, beta, got, want)
						}
					}
				}
			}
		}
	}
}

// TestTable1ConfigKeysAsZero: the engine runs a zero Config as Table 1,
// so a Runner set to gpu.DefaultConfig() must build the same job as one
// left at the zero Config, for every kind, while the 15- and 60-SM
// devices keep keys of their own. The two runs it shares are also
// checked to be the same run.
func TestTable1ConfigKeysAsZero(t *testing.T) {
	withConfig := func(numSMs int) *Runner {
		r := newTestRunner(t, 1000, 15)
		if numSMs != 0 {
			r.Config = gpu.DefaultConfig()
			r.Config.NumSMs = numSMs
		}
		return r
	}
	jobs := func(r *Runner) []simjob.Job {
		return []simjob.Job{
			r.solo().job(simjob.KindSolo, "HS", nil),
			r.job(simjob.KindPeriodic, "HS", engine.ChimeraPolicy{}),
			r.job(simjob.KindMulti, MultiLabel([]string{"LUD", "HS"}), engine.ChimeraPolicy{}),
		}
	}
	zero, table1 := jobs(withConfig(0)), jobs(withConfig(30))
	if !reflect.DeepEqual(table1, zero) {
		t.Errorf("Table 1 Config keys apart from the zero Config:\n%+v\n%+v", table1, zero)
	}
	for _, numSMs := range []int{15, 60} {
		other := jobs(withConfig(numSMs))
		for i := range other {
			if other[i] == zero[i] {
				t.Errorf("%d SMs: job %d keys as the Table 1 device's", numSMs, i)
			}
		}
	}
	if a, b := jobs(withConfig(15)), jobs(withConfig(60)); a[1] == b[1] {
		t.Error("15 and 60 SMs share a periodic job key")
	}

	ctx := context.Background()
	run := func(numSMs int) PeriodicResult {
		r := withConfig(numSMs)
		r.Window = units.FromMicroseconds(3000) // two evaluated periods
		r.UsePool(simjob.NewPool(1, simjob.NewCache()))
		res, _, err := r.periodic(ctx, "HS", engine.ChimeraPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Periods == 0 {
			t.Fatal("no period evaluated")
		}
		return res
	}
	if a, b := run(0), run(30); !reflect.DeepEqual(a, b) {
		t.Errorf("zero and Table 1 Config simulate differently:\n%+v\n%+v", a, b)
	}
}

func TestPeriodicSpecHalvesTheMachine(t *testing.T) {
	spec := PeriodicSpec(30)
	if spec.SMs != 15 {
		t.Errorf("SMs = %d, want 15", spec.SMs)
	}
	if spec.Period != units.FromMicroseconds(1000) || spec.Exec != units.FromMicroseconds(200) {
		t.Errorf("period/exec = %v/%v", spec.Period, spec.Exec)
	}
}

func TestRunPeriodicMemoized(t *testing.T) {
	e := NewExecutor(newTestRunner(t, 4000, 15))
	spec := jobspec.Periodic("HS", jobspec.PolicyChimera).WithWindowUs(4000).WithSeed(7)
	a, _ := mustRun(t, e, spec)
	b, _ := mustRun(t, e, spec)
	if !reflect.DeepEqual(a, b) {
		t.Error("memoized periodic result changed")
	}
	if a.Periodic.Periods == 0 {
		t.Error("no periods recorded")
	}
	if a.Periodic.Overhead < 0 || a.Periodic.Overhead > 1 {
		t.Errorf("overhead %v out of range", a.Periodic.Overhead)
	}
}

func TestChimeraBeatsSwitchOnViolations(t *testing.T) {
	// On a strictly idempotent benchmark whose switch time exceeds 15µs
	// (HS: 19.7µs), the switch baseline violates while Chimera flushes.
	e := NewExecutor(newTestRunner(t, 6000, 15))
	sw, _ := mustRun(t, e, jobspec.Periodic("HS", jobspec.PolicySwitch).WithWindowUs(6000).WithSeed(7))
	ch, _ := mustRun(t, e, jobspec.Periodic("HS", jobspec.PolicyChimera).WithWindowUs(6000).WithSeed(7))
	if ch.Periodic.ViolationRate >= sw.Periodic.ViolationRate {
		t.Errorf("Chimera violations %.2f not better than switch %.2f", ch.Periodic.ViolationRate, sw.Periodic.ViolationRate)
	}
	if ch.Periodic.ViolationRate != 0 {
		t.Errorf("Chimera violated %.2f on idempotent HS", ch.Periodic.ViolationRate)
	}
}

func TestRunPairSelfPair(t *testing.T) {
	// A benchmark paired with itself must split the machine ~evenly:
	// ANTT near 2 under FCFS and well below that with preemption.
	e := NewExecutor(newTestRunner(t, 4000, 30))
	res, _ := mustRun(t, e, jobspec.Pair("HS", "HS", jobspec.PolicyChimera).WithWindowUs(4000).WithConstraintUs(30).WithSeed(7))
	ch := res.Pair
	if ch.ANTT < 1 || ch.ANTT > 4 {
		t.Errorf("self-pair ANTT = %v", ch.ANTT)
	}
	if ch.STP < 0.5 || ch.STP > 2.01 {
		t.Errorf("self-pair STP = %v", ch.STP)
	}
}

func TestPreemptiveBeatsFCFSWithLongPartner(t *testing.T) {
	// MUM's 20ms blocks monopolize the GPU under FCFS; any preemptive
	// policy must improve ANTT for the pair.
	e := NewExecutor(newTestRunner(t, 8000, 30))
	pair := func(policy string) *PairResult {
		res, _ := mustRun(t, e, jobspec.Pair("HS", "MUM", policy).WithWindowUs(8000).WithConstraintUs(30).WithSeed(7))
		return res.Pair
	}
	fcfs, ch := pair(jobspec.PolicyFCFS), pair(jobspec.PolicyChimera)
	if ch.ANTT >= fcfs.ANTT {
		t.Errorf("Chimera ANTT %.2f not better than FCFS %.2f", ch.ANTT, fcfs.ANTT)
	}
	if fcfs.Requests != 0 {
		t.Errorf("FCFS issued %d preemption requests", fcfs.Requests)
	}
}

func TestRunMulti(t *testing.T) {
	e := NewExecutor(newTestRunner(t, 6000, 30))
	spec := jobspec.Spec{Kind: jobspec.KindMulti, Bench: "HS+SAD+BT"}.WithWindowUs(6000).WithConstraintUs(30).WithSeed(7)
	out, _ := mustRun(t, e, spec)
	res := out.Multi
	if res == nil || out.Pair != nil {
		t.Fatalf("multi spec result = %+v, want the multi payload only", out)
	}
	if res.STP <= 0 || res.STP > 3.01 {
		t.Errorf("3-way STP = %v", res.STP)
	}
	if res.ANTT < 1 {
		t.Errorf("3-way ANTT = %v below 1", res.ANTT)
	}
	if res.BusyFraction <= 0 || res.BusyFraction > 1.0001 {
		t.Errorf("busy fraction = %v", res.BusyFraction)
	}
	if res.Policy != "Chimera" || len(res.Benchmarks) != 3 {
		t.Errorf("result metadata wrong: %+v", res)
	}
	for _, bench := range []string{"", "HS", "HS+NOPE"} {
		if _, _, err := e.Run(context.Background(), jobspec.Spec{Kind: jobspec.KindMulti, Bench: bench}); err == nil {
			t.Errorf("multi spec over %q accepted", bench)
		}
	}
}

func TestMultiLabel(t *testing.T) {
	if got := MultiLabel([]string{"A", "B", "C"}); got != "A+B+C" {
		t.Errorf("MultiLabel = %q", got)
	}
}
