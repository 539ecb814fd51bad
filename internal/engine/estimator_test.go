package engine

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"chimera/internal/metrics"
	"chimera/internal/sched/predict"
	"chimera/internal/trace"
	"chimera/internal/units"
)

// requestView distills a RequestRecord to its observable fields so two
// runs can be compared without chasing the record's private scheduler
// pointers.
type requestView struct {
	At               units.Cycles
	Constraint       units.Cycles
	Victim           string
	Requester        string
	NumSMs           int
	Forced           int
	EstLatencyCycles float64
	LatencyCycles    units.Cycles
	Completed        bool
	Killed           bool
	Escalations      int
	Mix              [3]int
}

func requestViews(s *Simulation) []requestView {
	var out []requestView
	for _, r := range s.Requests() {
		out = append(out, requestView{
			At: r.At, Constraint: r.Constraint,
			Victim: r.Victim, Requester: r.Requester,
			NumSMs: r.NumSMs, Forced: r.Forced,
			EstLatencyCycles: r.EstLatencyCycles, LatencyCycles: r.LatencyCycles,
			Completed: r.Completed, Killed: r.Killed, Escalations: r.Escalations,
			Mix: r.Mix(),
		})
	}
	return out
}

// runContended executes the §4.1 contention scenario (looping benchmark
// preempted by the periodic task) under the given estimator and returns
// the finished simulation.
func runContended(t *testing.T, bench string, est predict.Estimator, reg *metrics.Registry) *Simulation {
	t.Helper()
	sim := New(Options{
		Policy:     ChimeraPolicy{},
		Constraint: units.FromMicroseconds(15),
		Seed:       1,
		WarmStats:  true,
		Estimator:  est,
		Metrics:    reg,
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

// TestMeasuredEstimatorMetamorphic is the oracle-equivalence property:
// the built-in measured-statistics path (nil estimator) and the
// explicit predict.Measured estimator see the same observation stream
// and compute the same means with the same arithmetic, so two same-seed
// runs must produce bit-identical schedules — every preemption request,
// estimate and period outcome equal. SAD exercises long drains and
// flush fallbacks; BS the strictly idempotent path.
func TestMeasuredEstimatorMetamorphic(t *testing.T) {
	for _, bench := range []string{"BS", "SAD", "MUM"} {
		t.Run(bench, func(t *testing.T) {
			oracle := runContended(t, bench, nil, nil)
			measured := runContended(t, bench, predict.NewMeasured(), nil)

			if len(oracle.Requests()) == 0 {
				t.Fatal("scenario issued no preemption requests; metamorphic comparison is vacuous")
			}
			if got, want := requestViews(measured), requestViews(oracle); !reflect.DeepEqual(got, want) {
				t.Errorf("request streams diverged:\noracle   %+v\nmeasured %+v", want, got)
			}
			if got, want := measured.PeriodRecords(), oracle.PeriodRecords(); !reflect.DeepEqual(got, want) {
				t.Errorf("period records diverged:\noracle   %+v\nmeasured %+v", want, got)
			}
			if got, want := measured.ProcessUseful(bench), oracle.ProcessUseful(bench); got != want {
				t.Errorf("useful instructions diverged: oracle %d, measured %d", want, got)
			}
		})
	}
}

// TestOnlineEstimatorObserves pins the predictor plumbing: an online
// run completes, the engine feeds the predictor every completion (the
// predict/observations counter advances), and the predictor converges
// onto the same per-label statistics the engine measured.
func TestOnlineEstimatorObserves(t *testing.T) {
	reg := metrics.NewRegistry()
	est := predict.NewStructural(predict.DefaultK)
	sim := runContended(t, "BS", est, reg)

	obs := reg.Counter(MetricPredictObservations).Value()
	if obs == 0 {
		t.Fatal("predict/observations counter never advanced")
	}
	found := false
	for _, l := range launchesFor(t, "BS") {
		e := est.Estimate(l.Params.Label)
		if e.Observations == 0 {
			continue
		}
		found = true
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

// countingEstimator counts the observations fed to the estimator it
// wraps.
type countingEstimator struct {
	predict.Estimator
	n int64
}

func (c *countingEstimator) Observe(label string, insts int64, cycles units.Cycles) {
	c.n++
	c.Estimator.Observe(label, insts, cycles)
}

// TestPredictObservationsPublished pins predict/observations to the
// number of completions the engine fed the estimator. The engine counts
// them per run and adds the total when its event loop stops, so the
// counter must match both for a run that reaches the end of its window
// and for one cancelled at its first kernel finish.
func TestPredictObservationsPublished(t *testing.T) {
	for _, cancelled := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		reg := metrics.NewRegistry()
		est := &countingEstimator{Estimator: predict.NewStructural(predict.DefaultK)}
		sim := New(Options{
			Policy:     ChimeraPolicy{},
			Constraint: units.FromMicroseconds(15),
			Seed:       1,
			Estimator:  est,
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
		if est.n == 0 {
			t.Fatalf("cancelled=%v: the estimator saw no observation", cancelled)
		}
		if got := reg.Counter(MetricPredictObservations).Value(); got != est.n {
			t.Errorf("cancelled=%v: predict/observations = %d, estimator saw %d", cancelled, got, est.n)
		}
	}
}
