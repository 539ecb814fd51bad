package engine

import (
	"testing"

	"chimera/internal/metrics"
	"chimera/internal/preempt"
	"chimera/internal/trace"
	"chimera/internal/units"
)

// stalledPeriodic builds the standard periodic-task scenario over BS
// with a drain baseline (drains have real, finite estimates for the
// stall to scale) and the given fault/watchdog options.
func stalledPeriodic(t *testing.T, stall func(int, units.Cycles) units.Cycles, k float64, tracer trace.Recorder, reg *metrics.Registry) *Simulation {
	t.Helper()
	sim := New(Options{
		Policy: FixedPolicy{Technique: preempt.Drain},
		// BS drains estimate at 120-170µs; 600µs leaves room for a
		// moderate stall to resolve before the deadline kill.
		Constraint: units.FromMicroseconds(600),
		Seed:       7,
		FaultStall: stall,
		WatchdogK:  k,
		Tracer:     tracer,
		Metrics:    reg,
	})
	sim.AddProcess(ProcessSpec{Name: "BS", Launches: launchesFor(t, "BS"), Loop: true})
	sim.AddPeriodicTask(PeriodicSpec{
		Period: units.FromMicroseconds(1000),
		Exec:   units.FromMicroseconds(200),
		SMs:    15,
	})
	sim.Run(units.FromMicroseconds(10_000))
	return sim
}

// TestInjectedStallDelaysHandover: a stalled request's handover cannot
// complete before the stall constituent expires, so its measured
// latency is at least the injected stall.
func TestInjectedStallDelaysHandover(t *testing.T) {
	stalls := map[int]units.Cycles{}
	reg := metrics.NewRegistry()
	sim := stalledPeriodic(t, func(req int, est units.Cycles) units.Cycles {
		s := 3 * est / 2 // inside the 600µs constraint for BS drains
		stalls[req] = s
		return s
	}, 0, nil, reg)

	if len(stalls) == 0 {
		t.Fatal("no requests consulted the stall injector")
	}
	if got := reg.Counter(MetricStallsInjected).Value(); got != int64(len(stalls)) {
		t.Errorf("%s = %d, want %d", MetricStallsInjected, got, len(stalls))
	}
	checked := 0
	for i, rec := range sim.Requests() {
		s, ok := stalls[i]
		if !ok || !rec.Completed {
			continue
		}
		checked++
		if rec.LatencyCycles < s {
			t.Errorf("request %d: latency %v < injected stall %v", i, rec.LatencyCycles, s)
		}
		if rec.Escalations != 0 {
			t.Errorf("request %d: escalated with no watchdog armed", i)
		}
	}
	if checked == 0 {
		t.Fatal("no stalled request completed; cannot check latency floor")
	}
}

// TestWatchdogEscalatesStalledRequest: with a stall far past the
// constraint and the watchdog armed, escalation abandons the stall and
// strengthens the draining blocks, so requests complete orders of
// magnitude earlier than the stall and the escalation is observable in
// the request record, the metrics registry and the trace.
func TestWatchdogEscalatesStalledRequest(t *testing.T) {
	col := trace.NewCollector()
	reg := metrics.NewRegistry()
	// k=0.5 fires the watchdog while blocks are still mid-drain, so the
	// escalation exercises the block-level ladder (flush/switch), not
	// just the stall cancellation.
	sim := stalledPeriodic(t, func(req int, est units.Cycles) units.Cycles {
		return 50 * est // would blow the deadline without rescue
	}, 0.5, col, reg)

	escalated := 0
	for _, rec := range sim.Requests() {
		if rec.Escalations > 0 {
			escalated++
			if !rec.Completed && !rec.Killed {
				t.Error("escalated request neither completed nor killed")
			}
		}
	}
	if escalated == 0 {
		t.Fatal("watchdog never escalated despite 50x stalls")
	}
	if got := reg.Counter(MetricEscalations).Value(); got < int64(escalated) {
		t.Errorf("%s = %d, want >= %d", MetricEscalations, got, escalated)
	}
	var sawStall, sawEscalate bool
	for _, e := range col.Events() {
		switch e.Kind {
		case trace.Stall:
			sawStall = true
			if e.Dur == 0 {
				t.Error("Stall event without Dur")
			}
		case trace.Escalate:
			sawEscalate = true
			if e.Detail == "" {
				t.Error("Escalate event without k detail")
			}
		}
	}
	if !sawStall || !sawEscalate {
		t.Errorf("trace missing fault events: stall=%t escalate=%t", sawStall, sawEscalate)
	}
	// The rescued requests must beat the stall by a wide margin: the
	// watchdog fires at 2x the estimate, not 50x.
	for i, rec := range sim.Requests() {
		if rec.Escalations > 0 && rec.Completed && rec.LatencyCycles > rec.Constraint {
			t.Errorf("request %d: escalated yet still violated (lat %v > %v)", i, rec.LatencyCycles, rec.Constraint)
		}
	}
}

// TestFaultedRunIsDeterministic: the same seed, stall function and
// watchdog produce bit-identical request records and trace streams.
func TestFaultedRunIsDeterministic(t *testing.T) {
	run := func() ([]*RequestRecord, []trace.Event) {
		col := trace.NewCollector()
		sim := stalledPeriodic(t, func(req int, est units.Cycles) units.Cycles {
			if req%2 == 0 {
				return 10 * est
			}
			return 0
		}, 3, col, nil)
		return sim.Requests(), col.Events()
	}
	r1, e1 := run()
	r2, e2 := run()
	if len(r1) != len(r2) {
		t.Fatalf("request counts differ: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		a, b := r1[i], r2[i]
		if a.At != b.At || a.LatencyCycles != b.LatencyCycles ||
			a.Completed != b.Completed || a.Killed != b.Killed ||
			a.Escalations != b.Escalations || a.Mix() != b.Mix() {
			t.Fatalf("request %d diverged:\n%+v\n%+v", i, *a, *b)
		}
	}
	if len(e1) != len(e2) {
		t.Fatalf("trace lengths differ: %d vs %d", len(e1), len(e2))
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("trace event %d diverged:\n%+v\n%+v", i, e1[i], e2[i])
		}
	}
}

// TestWatchdogWithoutFaultsIsHarmless: arming the watchdog on a clean
// run may escalate genuinely late drains but must never corrupt the
// simulation — every request still resolves and throughput accrues.
func TestWatchdogWithoutFaultsIsHarmless(t *testing.T) {
	sim := stalledPeriodic(t, nil, 1.5, nil, nil)
	if sim.ProcessUseful("BS") <= 0 {
		t.Fatal("no useful work under watchdog")
	}
	for i, rec := range sim.Requests() {
		if rec.Completed && rec.LatencyCycles > 0 && rec.Killed {
			t.Errorf("request %d both completed and killed", i)
		}
	}
}
