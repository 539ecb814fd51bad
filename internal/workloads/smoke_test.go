package workloads

import (
	"context"
	"testing"

	"chimera/internal/engine"
	"chimera/internal/units"
)

func TestRunPeriodicSmoke(t *testing.T) {
	r, err := NewRunner(units.FromMicroseconds(8000), units.FromMicroseconds(15), 7)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := r.RunPeriodic(context.Background(), "BS", engine.ChimeraPolicy{})
	if err != nil {
		t.Fatal(err)
	}
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
	pair := []string{"LUD", "HS"}
	fcfs, _, err := r.RunMulti(context.Background(), pair, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	ch, _, err := r.RunMulti(context.Background(), pair, engine.ChimeraPolicy{}, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("FCFS antt=%.2f stp=%.2f; Chimera antt=%.2f stp=%.2f reqs=%d", fcfs.ANTT, fcfs.STP, ch.ANTT, ch.STP, ch.Requests)
	if ch.ANTT >= fcfs.ANTT {
		t.Errorf("Chimera ANTT %.2f should beat FCFS %.2f", ch.ANTT, fcfs.ANTT)
	}
}
