package engine

import (
	"context"
	"errors"
	"testing"

	"chimera/internal/metrics"
	"chimera/internal/sched/predict"
	"chimera/internal/trace"
	"chimera/internal/units"
)

// runContended executes the §4.1 contention scenario (looping benchmark
// preempted by the periodic task) under the given estimate window and
// returns the finished simulation.
func runContended(t *testing.T, bench string, window int64, reg *metrics.Registry) *Simulation {
	t.Helper()
	sim := New(Options{
		Policy:         ChimeraPolicy{},
		Constraint:     units.FromMicroseconds(15),
		Seed:           1,
		WarmStats:      true,
		EstimateWindow: window,
		Metrics:        reg,
	})
	sim.AddProcess(ProcessSpec{Name: bench, Launches: launchesFor(t, bench), Loop: true})
	sim.AddPeriodicTask(PeriodicSpec{
		Period: units.FromMicroseconds(1000),
		Exec:   units.FromMicroseconds(200),
		SMs:    15,
	})
	sim.Run(units.FromMicroseconds(10_000))
	return sim
}

// TestWarmSeedHoldsTable2 pins the warm start: with WarmStats, a
// kernel's estimate holds one synthetic block at its Table 2 timing
// from launch, before any block completes, under either window. The
// online window's single seed stays below the confidence gate, so its
// cost-model view has no statistics yet; the oracle's does.
func TestWarmSeedHoldsTable2(t *testing.T) {
	launch := launchesFor(t, "SAD")[0]
	p := launch.Params
	for _, window := range []int64{0, predict.DefaultK} {
		sim := New(Options{Policy: ChimeraPolicy{}, Constraint: units.FromMicroseconds(15), Seed: 1,
			WarmStats: true, EstimateWindow: window})
		sim.AddProcess(ProcessSpec{Name: "SAD", Launches: []LaunchSpec{launch}})
		sim.Run(0)
		k := sim.active[0]
		est := k.est.Estimate()
		if est.Observations != 1 || est.InstsPerTB != float64(p.InstsPerTB) || est.CyclesPerTB != float64(p.TBExecCycles()) {
			t.Errorf("window %d: first estimate %+v, want one block of %d instructions in %d cycles",
				window, est, p.InstsPerTB, p.TBExecCycles())
		}
		if got, want := k.estimate(sim.cfg).HasInsts, window == 0; got != want {
			t.Errorf("window %d: HasInsts = %v, want %v", window, got, want)
		}
	}
}

// TestOnlineEstimatorObserves pins the predictor plumbing: an online
// run completes, the engine feeds every completion (the
// predict/observations counter advances), and each observed kernel's
// windowed estimate is well formed and never holds more than its window.
func TestOnlineEstimatorObserves(t *testing.T) {
	reg := metrics.NewRegistry()
	sim := runContended(t, "BS", predict.DefaultK, reg)

	obs := reg.Counter(MetricPredictObservations).Value()
	if obs == 0 {
		t.Fatal("predict/observations counter never advanced")
	}
	found := false
	for _, l := range launchesFor(t, "BS") {
		e := sim.estByLabel[l.Params.Label].Estimate()
		if e.Observations == 0 {
			continue
		}
		found = true
		if e.Observations > predict.DefaultK {
			t.Errorf("%s: %d observations past the window of %d", l.Params.Label, e.Observations, predict.DefaultK)
		}
		if e.Confidence <= 0 || e.Confidence > 1 {
			t.Errorf("%s: confidence %v out of range", l.Params.Label, e.Confidence)
		}
		if e.CyclesPerTB <= 0 {
			t.Errorf("%s: non-positive cycles estimate %+v", l.Params.Label, e)
		}
	}
	if !found {
		t.Fatal("no kernel label was ever observed by the online predictor")
	}
	if len(sim.Requests()) == 0 {
		t.Fatal("online run issued no preemption requests")
	}
}

// TestPredictObservationsPublished pins predict/observations to the
// number of completions the engine fed the estimates. The engine counts
// them per run and adds the total when its event loop stops, so the
// counter must match the observations the per-kernel estimates hold
// (with no window and no warm seed, one per completion), both for a run
// that reaches the end of its window and for one cancelled at its first
// kernel finish. A shared warm-up counts its completions once, when it
// is simulated, and each of two forks counts from zero only what it
// simulates after the warm-up.
func TestPredictObservationsPublished(t *testing.T) {
	held := func(sim *Simulation) (n int64) {
		for _, est := range sim.estByLabel {
			n += est.Estimate().Observations
		}
		return n
	}
	heldWarm := func(w *Warmup) (n int64) {
		for _, est := range w.est {
			n += est.Estimate().Observations
		}
		return n
	}
	c := catalogCase(t, "SAD")
	c.opts.WarmStats = false
	c.window = units.FromMicroseconds(5000)
	warmReg := metrics.NewRegistry()
	w := c.warmUp(t, warmReg)
	if got, want := warmReg.Counter(MetricPredictObservations).Value(), heldWarm(w); got != want || want == 0 {
		t.Errorf("warm-up: predict/observations = %d, estimates hold %d", got, want)
	}
	for i, solo := range []bool{false, true} {
		c.solo = solo
		reg := metrics.NewRegistry()
		c.opts.Metrics = reg
		f := c.forked(w)
		if got, want := reg.Counter(MetricPredictObservations).Value(), held(f)-heldWarm(w); got != want || want == 0 {
			t.Errorf("fork %d: predict/observations = %d, the fork's own completions %d", i, got, want)
		}
	}
	if got, want := warmReg.Counter(MetricPredictObservations).Value(), heldWarm(w); got != want {
		t.Errorf("forking moved the warm-up's predict/observations to %d, want %d", got, want)
	}

	for _, cancelled := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		reg := metrics.NewRegistry()
		sim := New(Options{
			Policy:     ChimeraPolicy{},
			Constraint: units.FromMicroseconds(15),
			Seed:       1,
			Metrics:    reg,
			Tracer: recorderFunc(func(e trace.Event) {
				if cancelled && e.Kind == trace.KernelFinish {
					cancel()
				}
			}),
		})
		sim.AddProcess(ProcessSpec{Name: "SAD", Launches: launchesFor(t, "SAD"), Loop: true})
		sim.AddPeriodicTask(PeriodicSpec{
			Period: units.FromMicroseconds(1000),
			Exec:   units.FromMicroseconds(200),
			SMs:    15,
		})
		err := sim.RunContext(ctx, units.FromMicroseconds(5000))
		cancel()
		if cancelled != errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled=%v: RunContext error = %v", cancelled, err)
		}
		n := held(sim)
		if n == 0 {
			t.Fatalf("cancelled=%v: the estimates hold no observation", cancelled)
		}
		if got := reg.Counter(MetricPredictObservations).Value(); got != n {
			t.Errorf("cancelled=%v: predict/observations = %d, estimates hold %d", cancelled, got, n)
		}
	}
}
