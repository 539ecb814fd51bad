package main

import (
	"math"
	"slices"
	"testing"
	"time"

	"chimera/internal/jobspec"
)

// TestArrivalGapsDeterministic: one seed gives one schedule, and another
// seed a different one.
func TestArrivalGapsDeterministic(t *testing.T) {
	for _, process := range []string{"poisson", "bursty"} {
		a, err := arrivalGaps(process, 100, 50, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := arrivalGaps(process, 100, 50, 7)
		c, _ := arrivalGaps(process, 100, 50, 8)
		if !slices.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two schedules", process)
		}
		if slices.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", process)
		}
	}
}

// TestArrivalGapsPoissonMean: exponential gaps at rate r average 1/r;
// over 10,000 draws the mean is within 5% of it.
func TestArrivalGapsPoissonMean(t *testing.T) {
	const n, rate = 10_000, 40.0
	gaps, err := arrivalGaps("poisson", n, rate, 1)
	if err != nil {
		t.Fatal(err)
	}
	var sum time.Duration
	for _, g := range gaps {
		if g < 0 {
			t.Fatalf("negative gap %v", g)
		}
		sum += g
	}
	mean, want := sum.Seconds()/n, 1/rate
	if math.Abs(mean-want) > 0.05*want {
		t.Errorf("mean gap %.5fs, want %.5fs ± 5%%", mean, want)
	}
}

// TestArrivalGapsBurstyIsModulatedPoisson: a bursty schedule is the same
// seed's Poisson gaps at 5× the rate for 20 jobs, then at a third of the
// rate for the next 20, and so on.
func TestArrivalGapsBurstyIsModulatedPoisson(t *testing.T) {
	const n, rate, seed = 80, 30.0, 5
	bursty, err := arrivalGaps("bursty", n, rate, seed)
	if err != nil {
		t.Fatal(err)
	}
	fast, _ := arrivalGaps("poisson", n, 5*rate, seed)
	slow, _ := arrivalGaps("poisson", n, rate/3, seed)
	for i, g := range bursty {
		want := fast[i]
		if (i/20)%2 == 1 {
			want = slow[i]
		}
		if g != want {
			t.Errorf("gap %d = %v, want %v", i, g, want)
		}
	}
}

func TestArrivalGapsRejects(t *testing.T) {
	if _, err := arrivalGaps("weibull", 10, 50, 1); err == nil {
		t.Error("unknown arrival process accepted")
	}
	if _, err := arrivalGaps("poisson", 10, 0, 1); err == nil {
		t.Error("zero rate accepted")
	}
}

// TestSpecForDistinct: with -distinct every job has its own spec hash,
// so the server's cache cannot collapse the run; without it every job
// has the same one.
func TestSpecForDistinct(t *testing.T) {
	for _, kind := range []string{jobspec.KindSolo, jobspec.KindPeriodic, jobspec.KindPair} {
		for _, distinct := range []bool{true, false} {
			o := options{kind: kind, bench: "SAD", benchB: "MUM", windowUs: 100, distinct: distinct}
			hashes := map[string]bool{}
			for i := int64(0); i < 20; i++ {
				spec := o.specFor(i)
				if spec.Kind != kind {
					t.Fatalf("%s: job %d has kind %q", kind, i, spec.Kind)
				}
				hashes[spec.Hash()] = true
			}
			if want := map[bool]int{true: 20, false: 1}[distinct]; len(hashes) != want {
				t.Errorf("%s, distinct=%t: %d spec hashes over 20 jobs, want %d", kind, distinct, len(hashes), want)
			}
		}
	}
}
