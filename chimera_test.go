package chimera_test

import (
	"context"
	"strings"
	"testing"

	"chimera"
)

func TestDefaultConfig(t *testing.T) {
	cfg := chimera.DefaultConfig()
	if cfg.NumSMs != 30 {
		t.Errorf("NumSMs = %d", cfg.NumSMs)
	}
	if cfg.Bandwidth != 177.4 {
		t.Errorf("Bandwidth = %v", cfg.Bandwidth)
	}
}

func TestMicroseconds(t *testing.T) {
	if chimera.Microseconds(15) != 21000 {
		t.Errorf("Microseconds(15) = %d", chimera.Microseconds(15))
	}
}

func TestCatalogAccess(t *testing.T) {
	cat := chimera.Catalog()
	if len(cat.Kernels()) != 27 || len(cat.Benchmarks()) != 14 {
		t.Fatalf("catalog %d kernels / %d benchmarks", len(cat.Kernels()), len(cat.Benchmarks()))
	}
	if cat.IdempotentCount() != 12 {
		t.Errorf("idempotent = %d", cat.IdempotentCount())
	}
}

// TestPublicDecisionFlow exercises the headline API end to end: build a
// snapshot, estimate costs, select with Algorithm 1.
func TestPublicDecisionFlow(t *testing.T) {
	cfg := chimera.DefaultConfig()
	params := chimera.Catalog().MustKernel("BS.0").Params
	est := chimera.KernelEstimate{
		AvgInstsPerTB:    float64(params.InstsPerTB),
		HasInsts:         true,
		AvgCPI:           params.BaseCPI,
		HasCPI:           true,
		SMIPC:            params.SMIPC(),
		HasIPC:           true,
		SMSwitchCycles:   params.SwitchCycles(cfg),
		TBSwitchCycles:   params.TBSwitchCycles(cfg),
		StrictIdempotent: params.StrictIdempotent,
	}
	in := chimera.Input{Est: est}
	for s := 0; s < 4; s++ {
		sm := chimera.SMSnapshot{SM: chimera.SMID(s)}
		for b := 0; b < 4; b++ {
			executed := int64(b) * params.InstsPerTB / 5
			sm.TBs = append(sm.TBs, chimera.TBSnapshot{
				Index:     s*4 + b,
				Executed:  executed,
				RunCycles: chimera.Cycles(float64(executed) * params.BaseCPI),
			})
		}
		in.SMs = append(in.SMs, sm)
	}
	req := chimera.Request{
		ConstraintCycles: float64(chimera.Microseconds(15)),
		NumPreempts:      2,
		Opts:             chimera.EstimateOptions{Relaxed: true},
	}
	sel := chimera.Select(req, in)
	if len(sel.Plans) != 2 {
		t.Fatalf("selected %d SMs", len(sel.Plans))
	}
	for _, p := range sel.Plans {
		if !p.MeetsLatency(req.ConstraintCycles) {
			t.Errorf("plan %v misses the constraint (%.0f cycles)", p.String(), p.LatencyCycles)
		}
	}

	// Per-block cost API agrees with the plan's choices being feasible.
	costs := chimera.EstimateCosts(in.SMs[0].TBs[0], est, 4, 0, chimera.EstimateOptions{Relaxed: true})
	if costs[chimera.Flush].LatencyCycles != 0 {
		t.Error("flush latency should be zero")
	}
}

func TestPublicKernelIR(t *testing.T) {
	prog := chimera.NewKernelBuilder("inc").
		LoadG("x", "t").ALU(1).StoreG("x", "t").Build()
	res, err := chimera.AnalyzeKernel(prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.StrictIdempotent {
		t.Error("x[i]++ must not be idempotent")
	}
	inst := chimera.InstrumentKernel(prog)
	if inst.NotifyCount != 1 {
		t.Errorf("NotifyCount = %d", inst.NotifyCount)
	}
}

func TestPublicSimulation(t *testing.T) {
	sim := chimera.NewSimulation(chimera.SimOptions{
		Policy:     chimera.ChimeraPolicy{},
		Constraint: chimera.Microseconds(15),
		Seed:       1,
		WarmStats:  true,
	})
	spec := chimera.Catalog().MustKernel("HS.0")
	sim.AddProcess(chimera.ProcessSpec{
		Name:     "hs",
		Launches: []chimera.LaunchSpec{{Params: spec.Params, Grid: 450}},
		Loop:     true,
	})
	sim.AddPeriodicTask(chimera.PeriodicSpec{
		Period: chimera.Microseconds(1000),
		Exec:   chimera.Microseconds(200),
		SMs:    15,
	})
	sim.Run(chimera.Microseconds(5000))
	if sim.ProcessUseful("hs") <= 0 {
		t.Error("no progress")
	}
	if len(sim.PeriodRecords()) == 0 {
		t.Error("no period records")
	}
}

func TestExperimentRegistry(t *testing.T) {
	names := chimera.ExperimentNames()
	if len(names) != 20 {
		t.Fatalf("names = %v", names)
	}
	tables, err := chimera.RunExperiment("table1", chimera.QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := chimera.RenderTables(&sb, tables); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Table 1") {
		t.Error("table 1 missing from output")
	}
	if _, err := chimera.RunExperiment("nope", chimera.QuickScale()); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunJobPublic(t *testing.T) {
	ctx := context.Background()
	res, err := chimera.RunJob(ctx, chimera.JobSpec{Kind: "multi", Bench: "HS+SAD", Policy: "fcfs", WindowUs: 500})
	if err != nil {
		t.Fatal(err)
	}
	if res.Multi == nil || res.Multi.Policy != "FCFS" || res.Multi.STP <= 0 {
		t.Errorf("multi job result = %+v", res)
	}
	if _, err := chimera.RunJob(ctx, chimera.JobSpec{Kind: "periodic", Bench: "SAD", Policy: "fcfs"}); err == nil {
		t.Error("fcfs accepted for a periodic job")
	}
}

func TestPublicWarpLevelAndFunctional(t *testing.T) {
	prog, err := chimera.ParseKernelString(".kernel k\nld global:x[t]\nalu x3\nst global:y[t]\n")
	if err != nil {
		t.Fatal(err)
	}
	res, err := chimera.RunWarpLevel(prog, chimera.DefaultSMConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Insts == 0 || res.CPI() <= 0 {
		t.Errorf("warp-level result: %+v", res)
	}
	clean, err := chimera.ExecuteKernel(prog, -1)
	if err != nil {
		t.Fatal(err)
	}
	flushed, err := chimera.ExecuteKernel(prog, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !flushed.Equal(clean) {
		t.Error("flush inside the idempotent window diverged")
	}
	if got := chimera.DisassembleKernel(prog); !strings.Contains(got, ".kernel k") {
		t.Errorf("disassembly = %q", got)
	}
}

func TestPublicTracing(t *testing.T) {
	col := chimera.NewTraceCollector()
	col.Record(chimera.TraceEvent{Kind: chimera.TraceRequest, SM: -1, TB: -1})
	if ev := col.Events(); len(ev) != 1 || ev[0].Kind != chimera.TraceRequest {
		t.Error("trace collector lost an event")
	}
}
