package workloads

import (
	"testing"

	"chimera/internal/jobspec"
	"chimera/internal/units"
)

func TestRunPeriodicSmoke(t *testing.T) {
	r, err := NewRunner(units.FromMicroseconds(8000), units.FromMicroseconds(15), 7)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := mustRun(t, NewExecutor(r), jobspec.Periodic("BS", jobspec.PolicyChimera).WithWindowUs(8000).WithSeed(7))
	res := out.Periodic
	t.Logf("BS chimera: violations=%.2f overhead=%.3f periods=%d mix=%v", res.ViolationRate, res.Overhead, res.Periods, res.Mix)
	if res.Periods == 0 {
		t.Fatal("no periods")
	}
}

func TestRunPairSmoke(t *testing.T) {
	r, err := NewRunner(units.FromMicroseconds(8000), units.FromMicroseconds(30), 7)
	if err != nil {
		t.Fatal(err)
	}
	e := NewExecutor(r)
	pair := func(policy string) *PairResult {
		res, _ := mustRun(t, e, jobspec.Pair("LUD", "HS", policy).WithWindowUs(8000).WithConstraintUs(30).WithSeed(7))
		return res.Pair
	}
	fcfs, ch := pair(jobspec.PolicyFCFS), pair(jobspec.PolicyChimera)
	t.Logf("FCFS antt=%.2f stp=%.2f; Chimera antt=%.2f stp=%.2f reqs=%d", fcfs.ANTT, fcfs.STP, ch.ANTT, ch.STP, ch.Requests)
	if ch.ANTT >= fcfs.ANTT {
		t.Errorf("Chimera ANTT %.2f should beat FCFS %.2f", ch.ANTT, fcfs.ANTT)
	}
}
