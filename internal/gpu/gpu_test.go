package gpu

import (
	"math"
	"testing"
	"testing/quick"

	"chimera/internal/units"
)

func TestDefaultConfigMatchesTable1(t *testing.T) {
	c := DefaultConfig()
	if c.NumSMs != 30 || c.SIMTWidth != 8 || c.RegistersPerSM != 32768 ||
		c.MaxTBsPerSM != 8 || c.SharedMemPerSM != 48*units.KB ||
		c.MemPartitions != 6 || c.Bandwidth != 177.4 {
		t.Errorf("default config deviates from Table 1: %+v", c)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestConfigValidateRejects(t *testing.T) {
	base := DefaultConfig()
	mutations := []func(*Config){
		func(c *Config) { c.NumSMs = 0 },
		func(c *Config) { c.SIMTWidth = -1 },
		func(c *Config) { c.WarpSize = 0 },
		func(c *Config) { c.MaxTBsPerSM = 0 },
		func(c *Config) { c.MemPartitions = 0 },
		func(c *Config) { c.Bandwidth = 0 },
	}
	for i, mutate := range mutations {
		c := base
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestPerSMBandwidth(t *testing.T) {
	c := DefaultConfig()
	got := float64(c.PerSMBandwidth())
	if math.Abs(got-177.4/30) > 1e-9 {
		t.Errorf("per-SM bandwidth %v, want %v", got, 177.4/30)
	}
}

func TestSwitchCyclesMatchesTable2(t *testing.T) {
	// BT.0: 46kB context, 2 blocks per SM -> 15.9µs (Table 2).
	c := DefaultConfig()
	k := KernelParams{
		Label: "BT.0", InstsPerTB: 1000, BaseCPI: 10, TBsPerSM: 2,
		ContextBytesPerTB: 46 * units.KB, GridSize: 10,
		StrictIdempotent: false, BreachFraction: 0.4,
	}
	got := k.SwitchCycles(c).Microseconds()
	if math.Abs(got-15.9) > 0.1 {
		t.Errorf("BT.0 switch = %.2fµs, want ≈15.9µs", got)
	}
	// Per-block share is 1/TBsPerSM of the SM switch.
	per := k.TBSwitchCycles(c).Microseconds()
	if math.Abs(per*2-got) > 0.01 {
		t.Errorf("per-block switch %v × 2 ≠ SM switch %v", per, got)
	}
}

func TestKernelParamsDerived(t *testing.T) {
	k := KernelParams{
		Label: "X.0", InstsPerTB: 10000, BaseCPI: 4, TBsPerSM: 5,
		ContextBytesPerTB: units.KB, GridSize: 100,
		StrictIdempotent: false, BreachFraction: 0.8,
	}
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := k.TBExecCycles(); got != 40000 {
		t.Errorf("TBExecCycles = %d", got)
	}
	if got := k.AvgDrainCycles(); got != 20000 {
		t.Errorf("AvgDrainCycles = %d", got)
	}
	if got := k.BreachInst(); got != 8000 {
		t.Errorf("BreachInst = %d", got)
	}
	if got := k.SMIPC(); math.Abs(got-1.25) > 1e-12 {
		t.Errorf("SMIPC = %v", got)
	}
	if got := k.SMContextBytes(); got != 5*units.KB {
		t.Errorf("SMContextBytes = %d", got)
	}
}

func TestBreachInstIdempotent(t *testing.T) {
	k := KernelParams{
		Label: "X.0", InstsPerTB: 10000, BaseCPI: 4, TBsPerSM: 5,
		GridSize: 1, StrictIdempotent: true, BreachFraction: 1,
	}
	if got := k.BreachInst(); got != k.InstsPerTB {
		t.Errorf("idempotent BreachInst = %d, want InstsPerTB", got)
	}
}

func TestKernelParamsValidateRejects(t *testing.T) {
	good := KernelParams{
		Label: "X.0", InstsPerTB: 100, BaseCPI: 1, TBsPerSM: 1,
		GridSize: 1, BreachFraction: 1, StrictIdempotent: true,
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("good params rejected: %v", err)
	}
	mutations := []func(*KernelParams){
		func(k *KernelParams) { k.Label = "" },
		func(k *KernelParams) { k.InstsPerTB = 0 },
		func(k *KernelParams) { k.BaseCPI = 0 },
		func(k *KernelParams) { k.CPISigma = -0.1 },
		func(k *KernelParams) { k.TBsPerSM = 0 },
		func(k *KernelParams) { k.GridSize = 0 },
		func(k *KernelParams) { k.BreachFraction = 1.5 },
		func(k *KernelParams) { k.StrictIdempotent = true; k.BreachFraction = 0.5 },
	}
	for i, mutate := range mutations {
		k := good
		mutate(&k)
		if err := k.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestObservedCPI(t *testing.T) {
	tb := TBSnapshot{Executed: 1000, RunCycles: 4200}
	if cpi, ok := tb.ObservedCPI(); !ok || math.Abs(cpi-4.2) > 1e-12 {
		t.Errorf("ObservedCPI = %v/%v", cpi, ok)
	}
	// Too little progress: not meaningful.
	tb = TBSnapshot{Executed: 10, RunCycles: 40}
	if _, ok := tb.ObservedCPI(); ok {
		t.Error("young block claims an observed CPI")
	}
	tb = TBSnapshot{Executed: 1000, RunCycles: 0}
	if _, ok := tb.ObservedCPI(); ok {
		t.Error("zero cycles claims an observed CPI")
	}
}

func TestBreachInstNeverExceedsTotal(t *testing.T) {
	f := func(insts uint16, fracRaw uint8) bool {
		if insts == 0 {
			return true
		}
		k := KernelParams{
			Label: "X", InstsPerTB: int64(insts), BaseCPI: 1, TBsPerSM: 1,
			GridSize: 1, BreachFraction: float64(fracRaw) / 255,
		}
		b := k.BreachInst()
		return b >= 0 && b <= k.InstsPerTB
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
