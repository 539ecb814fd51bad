package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"chimera/internal/gpu"
	"chimera/internal/kernels"
	"chimera/internal/metrics"
	"chimera/internal/preempt"
	"chimera/internal/sched/predict"
	"chimera/internal/trace"
	"chimera/internal/units"
)

// warmupCase is one §4.1 configuration, run both from cycle 0 and as a
// fork of its warm-up: opts are the run's options, the warm-up's own
// included, and solo drops the task.
type warmupCase struct {
	bench    string
	launches []LaunchSpec
	opts     Options
	solo     bool
	window   units.Cycles
}

// warmupPeriod is the §4.1 task's period: the warm-up is the stretch
// before its first instance.
var warmupPeriod = units.FromMicroseconds(1000)

func (c warmupCase) task(numSMs int) PeriodicSpec {
	return PeriodicSpec{Period: warmupPeriod, Exec: units.FromMicroseconds(200), SMs: numSMs / 2}
}

// straight runs the case uninterrupted from cycle 0 with every option
// set up front; a solo case runs without the task.
func (c warmupCase) straight(metricsReg *metrics.Registry) *Simulation {
	opts := c.opts
	opts.Metrics = metricsReg
	sim := New(opts)
	sim.AddProcess(ProcessSpec{Name: c.bench, Launches: c.launches, Loop: true})
	if !c.solo {
		sim.AddPeriodicTask(c.task(sim.Config().NumSMs))
	}
	sim.Run(c.window)
	return sim
}

// warmUp simulates the case's warm-up with none of the fork's options
// set: the process and the task, up to the task's first instance.
func (c warmupCase) warmUp(t testing.TB, metricsReg *metrics.Registry) *Warmup {
	t.Helper()
	sim := New(Options{Config: c.opts.Config, Seed: c.opts.Seed, WarmStats: c.opts.WarmStats, EstimateWindow: c.opts.EstimateWindow, Metrics: metricsReg})
	sim.AddProcess(ProcessSpec{Name: c.bench, Launches: c.launches, Loop: true})
	sim.AddPeriodicTask(c.task(sim.Config().NumSMs))
	w, err := sim.WarmUp(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// forked runs one fork of w to the case's window.
func (c warmupCase) forked(w *Warmup) *Simulation {
	sim := w.Fork(c.opts, c.solo)
	sim.Run(c.window)
	return sim
}

// requestView is a request record without its requester pointer, which
// names a kernel of its own simulation; every other field, the
// technique mix and the arrival count included, must match.
func requestView(r *RequestRecord) RequestRecord {
	v := *r
	v.requester = nil
	return v
}

// diffRuns returns the first observable difference between two finished
// runs of one process named name, or "" when they agree: every request
// record field, the period records, the process's useful, issued and
// wasted instructions and the SM-busy fraction.
func diffRuns(a, b *Simulation, name string, window units.Cycles) string {
	ra, rb := a.Requests(), b.Requests()
	if len(ra) != len(rb) {
		return fmt.Sprintf("%d requests, want %d", len(rb), len(ra))
	}
	for i := range ra {
		if va, vb := requestView(ra[i]), requestView(rb[i]); va != vb {
			return fmt.Sprintf("request %d: %+v, want %+v", i, vb, va)
		}
	}
	if pa, pb := a.PeriodRecords(), b.PeriodRecords(); !slices.Equal(pa, pb) {
		return fmt.Sprintf("period records %+v, want %+v", pb, pa)
	}
	type counts struct{ useful, issued, wasted int64 }
	ca := counts{a.ProcessUseful(name), a.ProcessIssued(name), a.ProcessWasted(name)}
	cb := counts{b.ProcessUseful(name), b.ProcessIssued(name), b.ProcessWasted(name)}
	if ca != cb {
		return fmt.Sprintf("useful/issued/wasted %+v, want %+v", cb, ca)
	}
	if fa, fb := a.SMBusyFraction(window), b.SMBusyFraction(window); fa != fb {
		return fmt.Sprintf("SM-busy fraction %v, want %v", fb, fa)
	}
	return ""
}

// checkFork runs the case straight and as a fork of w, the task kept
// and dropped, and fails on any difference.
func checkFork(t *testing.T, c warmupCase, w *Warmup) {
	t.Helper()
	for _, solo := range []bool{false, true} {
		c.solo = solo
		if d := diffRuns(c.straight(nil), c.forked(w), c.bench, c.window); d != "" {
			t.Fatalf("%s seed %d %v solo=%v window %v: fork differs from the uninterrupted run: %s",
				c.bench, c.opts.Seed, policyName(c.opts.Policy), solo, c.window, d)
		}
	}
}

func policyName(p Policy) string {
	if p == nil {
		return "no policy"
	}
	return p.Name()
}

// catalogCase returns the default case for a catalog benchmark: Table 1,
// seed 1, warm oracle statistics, Chimera at 15 µs, a 3 ms window.
func catalogCase(t testing.TB, bench string) warmupCase {
	return warmupCase{
		bench: bench, launches: launchesFor(t, bench),
		opts:   Options{Seed: 1, WarmStats: true, Policy: ChimeraPolicy{}, Constraint: units.FromMicroseconds(15)},
		window: units.FromMicroseconds(3000),
	}
}

// TestForkMatchesUninterruptedRun forks one warm-up per benchmark into
// every §4 contender (and the solo baseline) and requires each fork to
// match the run that simulated its own first millisecond.
func TestForkMatchesUninterruptedRun(t *testing.T) {
	policies := []Policy{
		ChimeraPolicy{},
		FixedPolicy{Technique: preempt.Switch},
		FixedPolicy{Technique: preempt.Drain},
		FixedPolicy{Technique: preempt.Flush},
	}
	for _, name := range kernels.Load().BenchmarkNames() {
		c := catalogCase(t, name)
		w := c.warmUp(t, nil)
		for _, p := range policies {
			c.opts.Policy = p
			checkFork(t, c, w)
		}
	}
}

// TestForkKeepsOptionsOfItsOwn forks one warm-up under options its
// uninterrupted twin sets from cycle 0 — contention, headroom, the
// watchdog, an injected stall, the online window, a smaller device and
// a window that ends mid-period.
func TestForkKeepsOptionsOfItsOwn(t *testing.T) {
	stall := func(i int, est units.Cycles) units.Cycles {
		if i%3 == 0 {
			return 2 * est
		}
		return 0
	}
	c := catalogCase(t, "FWT")
	c.opts.Config = gpu.DefaultConfig()
	c.opts.Config.NumSMs = 12
	c.opts.EstimateWindow = predict.DefaultK
	c.window = units.FromMicroseconds(3400)
	c.opts.Constraint, c.opts.Headroom = units.FromMicroseconds(10), units.FromMicroseconds(2)
	c.opts.ContentionBeta, c.opts.WatchdogK, c.opts.FaultStall = 1, 1.5, stall
	w := c.warmUp(t, nil)
	checkFork(t, c, w)
	var escalations int
	for _, r := range c.straight(nil).Requests() {
		escalations += r.Escalations
	}
	if escalations == 0 {
		t.Fatal("the case escalated no preemption request")
	}
}

// TestForkConcurrently forks one warm-up from several goroutines at
// once. Forking only reads the warm-up, so under -race nothing may
// conflict, and every fork must still match the uninterrupted run.
func TestForkConcurrently(t *testing.T) {
	c := catalogCase(t, "SAD")
	w := c.warmUp(t, nil)
	want := c.straight(nil)
	const forks = 4
	diffs := make([]string, forks)
	var wg sync.WaitGroup
	for i := range diffs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			diffs[i] = diffRuns(want, c.forked(w), c.bench, c.window)
		}()
	}
	wg.Wait()
	for i, d := range diffs {
		if d != "" {
			t.Errorf("fork %d: %s", i, d)
		}
	}
}

// TestWarmUpMisuse pins the guards: a warmed-up simulation cannot be
// run, WarmUp needs a periodic task, a fork cannot stop before its
// warm-up's end nor run under a device, seed, warm start, estimate
// window or tracer its warm-up was not simulated with, and a cancelled
// WarmUp clears its queue and returns no Warmup.
func TestWarmUpMisuse(t *testing.T) {
	c := catalogCase(t, "BS")
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		fn()
	}
	sim := New(Options{})
	sim.AddProcess(ProcessSpec{Name: c.bench, Launches: c.launches, Loop: true})
	sim.AddPeriodicTask(c.task(sim.Config().NumSMs))
	w, err := sim.WarmUp(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	mustPanic("Run after WarmUp", func() { sim.Run(c.window) })
	opts := Options{Policy: ChimeraPolicy{}, Constraint: c.opts.Constraint}
	mustPanic("a fork run to before the warm-up's end", func() { w.Fork(opts, false).Run(warmupPeriod / 2) })
	small := gpu.DefaultConfig()
	small.NumSMs = 12
	mismatched := map[string]Options{
		"another seed":       {Seed: 1},
		"another device":     {Config: small},
		"another warm start": {WarmStats: true},
		"another window":     {EstimateWindow: predict.DefaultK},
		"a tracer":           {Tracer: recorderFunc(func(trace.Event) {})},
	}
	for what, o := range mismatched {
		o.Policy, o.Constraint = opts.Policy, opts.Constraint
		mustPanic("a fork with "+what, func() { w.Fork(o, false) })
	}
	// A solo fork reads no estimate, so it may differ in warm start and
	// window; an explicit Table 1 device is the warm-up's zero Config.
	w.Fork(Options{Config: gpu.DefaultConfig(), WarmStats: true, EstimateWindow: predict.DefaultK, Policy: opts.Policy}, true).Run(c.window)
	plain := New(Options{})
	plain.AddProcess(ProcessSpec{Name: c.bench, Launches: c.launches, Loop: true})
	mustPanic("WarmUp without a periodic task", func() { _, _ = plain.WarmUp(context.Background()) })
	fcfs := New(Options{Policy: FCFS{}})
	fcfs.AddProcess(ProcessSpec{Name: c.bench, Launches: c.launches, Loop: true})
	fcfs.AddPeriodicTask(c.task(fcfs.Config().NumSMs))
	mustPanic("WarmUp under FCFS", func() { _, _ = fcfs.WarmUp(context.Background()) })
	mustPanic("a fork under FCFS", func() { w.Fork(Options{Policy: FCFS{}}, false) })

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sim = New(Options{})
	sim.AddProcess(ProcessSpec{Name: c.bench, Launches: c.launches, Loop: true})
	sim.AddPeriodicTask(c.task(sim.Config().NumSMs))
	if w, err := sim.WarmUp(ctx); !errors.Is(err, context.Canceled) || w != nil {
		t.Fatalf("cancelled WarmUp returned %v, %v", w, err)
	}
	if sim.Pending() != 0 {
		t.Errorf("cancelled warm-up left %d events", sim.Pending())
	}
}

// FuzzWarmupFork decodes a catalog benchmark, a seed, every option a
// fork sets (policy, constraint, headroom, contention β, watchdog,
// stall), the warm-up's own (warm start, estimate window, SM count) and
// a window of more than one and at most four periods, and requires the
// fork of the warm-up to agree with the uninterrupted run on every
// request record field, the period records, the process's instruction
// counts and the SM-busy fraction — and the solo fork with the plain
// stand-alone run.
func FuzzWarmupFork(f *testing.F) {
	f.Add(uint8(0), uint64(1), uint8(0), uint8(15), uint8(0), uint8(0), uint8(0), uint8(0), uint8(1), uint8(28), uint16(65535))
	f.Add(uint8(9), uint64(7), uint8(1), uint8(5), uint8(2), uint8(2), uint8(1), uint8(1), uint8(3), uint8(10), uint16(20000))
	f.Fuzz(func(t *testing.T, bench uint8, seed uint64, policy, constraintUs, headroomUs, beta, watchdog, stall, flags, sms uint8, window uint16) {
		cat := kernels.Load()
		names := cat.BenchmarkNames()
		name := names[int(bench)%len(names)]
		c := catalogCase(t, name)
		c.opts.Seed = seed
		c.opts.Config = gpu.DefaultConfig()
		c.opts.Config.NumSMs = 2 + int(sms)%29
		c.opts.WarmStats = flags&1 != 0
		if flags&2 != 0 {
			c.opts.EstimateWindow = predict.DefaultK
		}
		policies := []Policy{
			ChimeraPolicy{},
			FixedPolicy{Technique: preempt.Switch},
			FixedPolicy{Technique: preempt.Drain},
			FixedPolicy{Technique: preempt.Flush},
			ChimeraPolicy{StrictIdempotence: true},
			FixedPolicy{Technique: preempt.Flush, StrictIdempotence: true},
			nil,
		}
		c.opts.Policy = policies[int(policy)%len(policies)]
		c.opts.Constraint = units.FromMicroseconds(float64(1 + constraintUs%40))
		c.opts.Headroom = units.FromMicroseconds(float64(headroomUs % 8))
		c.opts.ContentionBeta = float64(beta%4) / 2
		c.opts.WatchdogK = []float64{0, 1, 1.5, 3}[watchdog%4]
		if every := int(stall % 4); every > 0 {
			c.opts.FaultStall = func(i int, est units.Cycles) units.Cycles {
				if i%every == 0 {
					return est + units.Cycles(every)*units.FromMicroseconds(5)
				}
				return 0
			}
		}
		c.window = warmupPeriod + 1 + units.Cycles(int64(window)*int64(3*warmupPeriod-1)/65535)
		checkFork(t, c, c.warmUp(t, nil))
	})
}

// TestWarmupTracerSeesNothingTwice: a traced warm-up records its own
// events once; forks are never traced.
func TestWarmupTracerSeesNothingTwice(t *testing.T) {
	c := catalogCase(t, "HS")
	var events int
	sim := New(Options{Seed: c.opts.Seed, WarmStats: c.opts.WarmStats, Tracer: recorderFunc(func(trace.Event) { events++ })})
	sim.AddProcess(ProcessSpec{Name: c.bench, Launches: c.launches, Loop: true})
	sim.AddPeriodicTask(c.task(sim.Config().NumSMs))
	w, err := sim.WarmUp(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	before := events
	if before == 0 {
		t.Fatal("the traced warm-up recorded nothing")
	}
	c.forked(w)
	if events != before {
		t.Errorf("a fork recorded %d events into its warm-up's tracer", events-before)
	}
}

// TestWarmupAndForkObserveTheRunOnce: a warm-up and one fork of it,
// both observing into one registry, leave it exactly as the
// uninterrupted run leaves its own — every counter and histogram, the
// warm-up's idle gaps, rebalances and completions counted once.
func TestWarmupAndForkObserveTheRunOnce(t *testing.T) {
	c := catalogCase(t, "SAD")
	want := metrics.NewRegistry()
	c.straight(want)
	got := metrics.NewRegistry()
	c.opts.Metrics = got
	c.forked(c.warmUp(t, got))
	var a, b strings.Builder
	if err := want.Render(&a); err != nil {
		t.Fatal(err)
	}
	if err := got.Render(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("warm-up + fork metrics:\n%s\nuninterrupted run:\n%s", b.String(), a.String())
	}
	if want.Counter(MetricRequests).Value() == 0 {
		t.Error("the case issued no preemption request")
	}
}
