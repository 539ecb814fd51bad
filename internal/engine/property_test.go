package engine

import (
	"math/rand"
	"testing"
	"testing/quick"

	"chimera/internal/gpu"
	"chimera/internal/preempt"
	"chimera/internal/units"
)

// randomLaunch builds a random finite kernel.
func randomLaunch(r *rand.Rand, label string) LaunchSpec {
	insts := int64(r.Intn(20000) + 500)
	breach := 1.0
	strict := true
	if r.Intn(2) == 0 {
		breach = 0.05 + 0.9*r.Float64()
		strict = false
	}
	return LaunchSpec{
		Params: gpu.KernelParams{
			Label: label, Benchmark: label, Name: label,
			InstsPerTB:        insts,
			BaseCPI:           1 + 7*r.Float64(),
			CPISigma:          0.3 * r.Float64(),
			TBsPerSM:          r.Intn(8) + 1,
			ContextBytesPerTB: units.Bytes(r.Intn(64)+1) * units.KB,
			GridSize:          r.Intn(200) + 1,
			StrictIdempotent:  strict,
			BreachFraction:    breach,
		},
		Grid: r.Intn(200) + 1,
	}
}

// TestEngineConservationProperty: whatever the kernels and the policy,
// every launched thread block completes exactly once, credited useful
// work equals grid × instructions, waste is non-negative and only
// flushing produces it.
func TestEngineConservationProperty(t *testing.T) {
	policies := []Policy{
		ChimeraPolicy{},
		FixedPolicy{Technique: preempt.Switch},
		FixedPolicy{Technique: preempt.Drain},
		FixedPolicy{Technique: preempt.Flush},
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomLaunch(r, "A")
		b := randomLaunch(r, "B")
		policy := policies[r.Intn(len(policies))]
		sim := New(Options{
			Policy:     policy,
			Constraint: units.FromMicroseconds(float64(r.Intn(30) + 5)),
			Seed:       uint64(seed),
			WarmStats:  r.Intn(2) == 0,
		})
		sim.AddProcess(ProcessSpec{Name: "PA", Launches: []LaunchSpec{a}})
		sim.AddProcess(ProcessSpec{Name: "PB", Launches: []LaunchSpec{b}})
		sim.Run(units.FromMicroseconds(3_000_000)) // generous: both must finish

		wantA := int64(a.Grid) * a.Params.InstsPerTB
		wantB := int64(b.Grid) * b.Params.InstsPerTB
		if sim.ProcessUseful("PA") != wantA {
			t.Logf("seed %d: A useful %d want %d (policy %s)", seed, sim.ProcessUseful("PA"), wantA, policy.Name())
			return false
		}
		if sim.ProcessUseful("PB") != wantB {
			t.Logf("seed %d: B useful %d want %d (policy %s)", seed, sim.ProcessUseful("PB"), wantB, policy.Name())
			return false
		}
		wasted := sim.ProcessWasted("PA") + sim.ProcessWasted("PB")
		if wasted < 0 {
			return false
		}
		if fp, ok := policy.(FixedPolicy); ok && fp.Technique != preempt.Flush && wasted != 0 {
			t.Logf("seed %d: %s wasted %d", seed, policy.Name(), wasted)
			return false
		}
		// The estimate holds every completion, plus the warm seed if any.
		if n := sim.estByLabel["A"].Estimate().Observations; n < int64(a.Grid) {
			t.Logf("seed %d: A completed %d of %d blocks", seed, n, a.Grid)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestEngineRequestLatencyProperty: every completed preemption request's
// measured latency is bounded by the physical worst case — the victim's
// full SM context save plus its longest possible drain.
func TestEngineRequestLatencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomLaunch(r, "A")
		b := randomLaunch(r, "B")
		sim := New(Options{
			Policy:     ChimeraPolicy{},
			Constraint: units.FromMicroseconds(15),
			Seed:       uint64(seed),
			WarmStats:  true,
		})
		sim.AddProcess(ProcessSpec{Name: "PA", Launches: []LaunchSpec{a}, Loop: true})
		sim.AddProcess(ProcessSpec{Name: "PB", Launches: []LaunchSpec{b}, Loop: true})
		sim.Run(units.FromMicroseconds(30_000))

		bound := func(p gpu.KernelParams) float64 {
			// Longest block (CPI clamped at 8× base) plus a full save.
			exec := float64(p.InstsPerTB) * p.BaseCPI * 8
			return exec + float64(p.SwitchCycles(sim.Config())) + 1
		}
		for _, req := range sim.Requests() {
			if !req.Completed {
				continue
			}
			var limit float64
			switch req.Victim {
			case "A":
				limit = bound(a.Params)
			case "B":
				limit = bound(b.Params)
			default:
				continue
			}
			if float64(req.LatencyCycles) > limit {
				t.Logf("seed %d: latency %v exceeds physical bound %.0f", seed, req.LatencyCycles, limit)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
