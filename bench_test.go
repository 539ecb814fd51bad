// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§4), regenerating the exhibit and logging it, plus
// microbenchmarks of the decision core itself (Algorithm 1's cost is
// claimed negligible in §3.3 — BenchmarkSelect measures it).
//
// The exhibit benchmarks run at the quick scale so `go test -bench=.`
// finishes in minutes; `go run ./cmd/chimerasim all` regenerates
// everything at the recorded EXPERIMENTS.md scale.
package chimera_test

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"chimera"
	"chimera/internal/jobspec"
	"chimera/internal/simjob"
	"chimera/internal/workloads"
)

// benchScale is the fidelity used by the exhibit benchmarks.
func benchScale() chimera.Scale {
	return chimera.QuickScale()
}

// runExhibit regenerates one exhibit per iteration and logs it once.
func runExhibit(b *testing.B, name string) {
	b.Helper()
	var out string
	for i := 0; i < b.N; i++ {
		tables, err := chimera.RunExperiment(name, benchScale())
		if err != nil {
			b.Fatal(err)
		}
		var sb strings.Builder
		if err := chimera.RenderTables(&sb, tables); err != nil {
			b.Fatal(err)
		}
		out = sb.String()
	}
	b.Log("\n" + out)
}

func BenchmarkTable1(b *testing.B)   { runExhibit(b, "table1") }
func BenchmarkTable2(b *testing.B)   { runExhibit(b, "table2") }
func BenchmarkFig2(b *testing.B)     { runExhibit(b, "fig2") }
func BenchmarkFig3(b *testing.B)     { runExhibit(b, "fig3") }
func BenchmarkFig6(b *testing.B)     { runExhibit(b, "fig6") }
func BenchmarkFig7(b *testing.B)     { runExhibit(b, "fig7") }
func BenchmarkFig8(b *testing.B)     { runExhibit(b, "fig8") }
func BenchmarkFig9(b *testing.B)     { runExhibit(b, "fig9") }
func BenchmarkFig10(b *testing.B)    { runExhibit(b, "fig10") }
func BenchmarkFig11(b *testing.B)    { runExhibit(b, "fig11") }
func BenchmarkAllPairs(b *testing.B) { runExhibit(b, "allpairs") }

// Ablation benches (DESIGN.md §5): the combined table, plus the three
// focused variants for -bench filtering.
func BenchmarkAblations(b *testing.B) { runExhibit(b, "ablation") }

func benchAblationVariant(b *testing.B, policy string, warm bool) {
	b.Helper()
	scale := benchScale()
	spec := jobspec.Periodic("", policy).WithWindowUs(scale.PeriodicWindow.Microseconds()).WithSeed(scale.Seed)
	var violations float64
	for i := 0; i < b.N; i++ {
		env, err := workloads.NewRunner(scale.PeriodicWindow, chimera.Microseconds(15), scale.Seed)
		if err != nil {
			b.Fatal(err)
		}
		env.Warm = warm
		ex := workloads.NewExecutor(env)
		total, n := 0.0, 0
		for _, bench := range chimera.Catalog().BenchmarkNames() {
			spec.Bench = bench
			res, _, err := ex.Run(context.Background(), spec)
			if err != nil {
				b.Fatal(err)
			}
			total += res.Periodic.ViolationRate
			n++
		}
		violations = total / float64(n)
	}
	b.ReportMetric(violations*100, "violations%")
}

func BenchmarkAblationNoConservative(b *testing.B) {
	benchAblationVariant(b, jobspec.PolicyChimeraOptimistic, false)
}

func BenchmarkAblationPerSMOnly(b *testing.B) {
	benchAblationVariant(b, jobspec.PolicyChimeraPerSM, true)
}

func BenchmarkAblationCycleEstimator(b *testing.B) {
	benchAblationVariant(b, jobspec.PolicyChimeraCycleEst, true)
}

// BenchmarkSelect measures Algorithm 1 itself on a full-width request
// (30 SMs × 8 blocks, the worst case of the Table 1 configuration) —
// the §3.3 claim is that selection cost is negligible against the
// preemption latency.
func BenchmarkSelect(b *testing.B) {
	cfg := chimera.DefaultConfig()
	params := chimera.Catalog().MustKernel("SAD.0").Params
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
	for s := 0; s < cfg.NumSMs; s++ {
		sm := chimera.SMSnapshot{SM: chimera.SMID(s)}
		for t := 0; t < cfg.MaxTBsPerSM; t++ {
			executed := int64((s*cfg.MaxTBsPerSM + t) * 997 % int(params.InstsPerTB))
			sm.TBs = append(sm.TBs, chimera.TBSnapshot{
				Index:     s*cfg.MaxTBsPerSM + t,
				Executed:  executed,
				RunCycles: chimera.Cycles(float64(executed) * params.BaseCPI),
			})
		}
		in.SMs = append(in.SMs, sm)
	}
	req := chimera.Request{
		ConstraintCycles: float64(chimera.Microseconds(15)),
		NumPreempts:      cfg.NumSMs / 2,
		Opts:             chimera.EstimateOptions{Relaxed: true},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel := chimera.Select(req, in)
		if len(sel.Plans) == 0 {
			b.Fatal("empty selection")
		}
	}
}

// BenchmarkAnalyze measures the compiler-side idempotence analysis over
// the whole 27-kernel catalog.
func BenchmarkAnalyze(b *testing.B) {
	specs := chimera.Catalog().Kernels()
	for i := 0; i < b.N; i++ {
		for _, s := range specs {
			if _, err := chimera.AnalyzeKernel(s.Program); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSimulation measures raw simulator throughput: one millisecond
// of a saturated 30-SM device per iteration. The custom ns/sim-cycle
// metric is the wall-clock cost of one simulated device cycle — the
// headline number BENCH_core.json tracks across PRs.
func BenchmarkSimulation(b *testing.B) {
	cat := chimera.Catalog()
	spec := cat.MustKernel("BP.0")
	window := chimera.Microseconds(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim := chimera.NewSimulation(chimera.SimOptions{Seed: uint64(i), WarmStats: true})
		sim.AddProcess(chimera.ProcessSpec{
			Name:     "bench",
			Launches: []chimera.LaunchSpec{{Params: spec.Params, Grid: spec.Params.GridSize}},
			Loop:     true,
		})
		sim.Run(window)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(window)), "ns/sim-cycle")
}

// BenchmarkEngineHot measures the engine's hot loop under multitasking
// pressure: a saturated 30-SM device running a looping background
// kernel beside a half-device real-time task released every 100µs. No
// Policy is set, so no preemption is issued and every period misses
// its deadline and is killed: the mix exercises event scheduling, TB
// recycling, kernel launch and kill and the rebalance path, but not the
// preemption planner (TestEngineHotAllocBudget's Chimera case covers
// that). The ns/sim-cycle metric is the number BENCH_engine.json tracks.
func BenchmarkEngineHot(b *testing.B) {
	cat := chimera.Catalog()
	spec := cat.MustKernel("BP.0")
	window := chimera.Microseconds(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim := chimera.NewSimulation(chimera.SimOptions{Seed: uint64(i), WarmStats: true})
		sim.AddProcess(chimera.ProcessSpec{
			Name:     "bench",
			Launches: []chimera.LaunchSpec{{Params: spec.Params, Grid: spec.Params.GridSize}},
			Loop:     true,
		})
		sim.AddPeriodicTask(chimera.PeriodicSpec{
			Period: chimera.Microseconds(100),
			Exec:   chimera.Microseconds(40),
			SMs:    15,
			Label:  "RT",
		})
		sim.Run(window)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(window)), "ns/sim-cycle")
}

// allocsPerRun is testing.AllocsPerRun reporting bytes as well: the
// average objects and bytes one call of f allocates, measured after a
// warm-up call with GOMAXPROCS at 1.
func allocsPerRun(runs int, f func()) (objects, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestEngineHotAllocBudget pins the allocation count and volume of the
// hot-loop scenario, once per preemption regime. The pooling work (TB
// free lists, scratch buffers) brought a 1ms saturated window from
// ~144k allocations down to ~2k, and recycling event-queue slots cut
// its bytes from ~1.6 MB (the old queue carved a fresh 24-byte event
// per schedule from never-reused arena chunks) to ~150 KB.
//
// With a nil Policy no preemption is ever issued: every real-time
// period is killed at its deadline, and the case never reaches the
// planner. The Chimera case (15µs constraint) issues 9 requests and
// kills no period. Each request runs core.PlanSM on every victim SM,
// which allocates only the plan it returns. Measured on a 2-vCPU
// x86-64 VM with Go 1.24: 1,008 objects and 77,584 bytes without a
// policy, 2,101 objects and 230,848 bytes with Chimera.
// Every budget has ~2× headroom: it catches a reintroduced per-event
// or per-block allocation, whether it costs tens of thousands of
// objects or a few large chunks, without flaking on incidental drift.
func TestEngineHotAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting run is ~100ms")
	}
	cat := chimera.Catalog()
	spec := cat.MustKernel("BP.0")
	window := chimera.Microseconds(1000)
	cases := []struct {
		name          string
		opts          chimera.SimOptions
		budget, bytes float64
	}{
		{"nil policy", chimera.SimOptions{Seed: 1, WarmStats: true}, 6000, 320_000},
		{"chimera", chimera.SimOptions{Seed: 1, WarmStats: true, Policy: chimera.ChimeraPolicy{},
			Constraint: chimera.Microseconds(15)}, 4200, 460_000},
	}
	for _, c := range cases {
		var sim *chimera.Simulation
		allocs, bytes := allocsPerRun(3, func() {
			sim = chimera.NewSimulation(c.opts)
			sim.AddProcess(chimera.ProcessSpec{
				Name:     "bench",
				Launches: []chimera.LaunchSpec{{Params: spec.Params, Grid: spec.Params.GridSize}},
				Loop:     true,
			})
			sim.AddPeriodicTask(chimera.PeriodicSpec{
				Period: chimera.Microseconds(100),
				Exec:   chimera.Microseconds(40),
				SMs:    15,
				Label:  "RT",
			})
			sim.Run(window)
		})
		if c.opts.Policy != nil && len(sim.Requests()) == 0 {
			t.Errorf("%s: no preemption request issued, so the budget does not cover the planner", c.name)
		}
		if allocs > c.budget {
			t.Errorf("%s: hot-loop scenario allocates %.0f objects per 1ms window, budget %.0f", c.name, allocs, c.budget)
		}
		if bytes > c.bytes {
			t.Errorf("%s: hot-loop scenario allocates %.0f bytes per 1ms window, budget %.0f", c.name, bytes, c.bytes)
		}
	}
}

// BenchmarkSimjobPool measures the spec-addressed job layer end to end:
// one jobspec.Spec through the workloads Executor against a warm result
// cache per iteration — normalize, validate, policy parse, identity
// derivation and the memoized lookup, everything a cached exhibit or
// replayed request pays besides the simulation itself. The custom
// jobs/sec metric is the dedup-path throughput ceiling.
func BenchmarkSimjobPool(b *testing.B) {
	r, err := workloads.NewRunner(chimera.Microseconds(200), chimera.Microseconds(15), 1)
	if err != nil {
		b.Fatal(err)
	}
	r = r.UsePool(simjob.NewPool(0, simjob.NewCache()))
	ex := workloads.NewExecutor(r)
	spec := jobspec.Periodic("SAD", "").WithWindowUs(200)
	ctx := context.Background()
	if _, _, err := ex.Run(ctx, spec); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, executed, err := ex.Run(ctx, spec)
		if err != nil {
			b.Fatal(err)
		}
		if executed {
			b.Fatal("warm spec re-simulated")
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/sec")
}

// Extension exhibits.
func BenchmarkContention(b *testing.B)  { runExhibit(b, "contention") }
func BenchmarkScaling(b *testing.B)     { runExhibit(b, "scaling") }
func BenchmarkEstAccuracy(b *testing.B) { runExhibit(b, "estacc") }

// BenchmarkWarpLevel measures the warp-level SM model over the whole
// catalog (sampled), the grounding layer for the block-level CPIs.
func BenchmarkWarpLevel(b *testing.B) {
	cfg := chimera.DefaultSMConfig()
	cfg.MaxInstsPerWarp = 2048
	specs := chimera.Catalog().Kernels()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range specs {
			if _, err := chimera.RunWarpLevel(s.Program, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFunctionalFlush measures the functional flush-equivalence
// check on a catalog kernel (one undisturbed run plus one flushed run).
func BenchmarkFunctionalFlush(b *testing.B) {
	prog := chimera.Catalog().MustKernel("NW.0").Program
	res, err := chimera.AnalyzeKernel(prog)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clean, err := chimera.ExecuteKernel(prog, -1)
		if err != nil {
			b.Fatal(err)
		}
		flushed, err := chimera.ExecuteKernel(prog, res.FirstBreach/2)
		if err != nil {
			b.Fatal(err)
		}
		if !flushed.Equal(clean) {
			b.Fatal("flush inside the idempotent window diverged")
		}
	}
}

func BenchmarkCalibrated(b *testing.B) { runExhibit(b, "calibrated") }
func BenchmarkGPUSize(b *testing.B)    { runExhibit(b, "gpusize") }
func BenchmarkSeeds(b *testing.B)      { runExhibit(b, "seeds") }
