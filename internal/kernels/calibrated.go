package kernels

import (
	"runtime"
	"sync"
	"sync/atomic"

	"chimera/internal/smsim"
)

// LoadCalibrated returns an alternative catalog whose per-kernel CPI
// assumptions are replaced by measurements from the warp-level SM model
// (internal/smsim): each kernel program is executed (sampled) on the
// modelled SM and its measured cycles-per-warp-instruction, scaled by
// the kernel's occupancy, becomes the block CPI. Thread-block execution
// times then follow from the kernel's instruction count instead of
// being pinned to Table 2's drain times.
//
// The catalog is built once, on first use, with the kernels measured in
// parallel; callers that never ask for it never pay for it.
//
// The calibrated catalog exists as a robustness check: the headline
// results should not depend on the hand-assigned CPI values
// (experiments' "calibrated" exhibit re-runs Figure 6 on it).
func LoadCalibrated() *Catalog {
	calOnce.Do(func() { calibrated = buildCalibrated() })
	return calibrated
}

var (
	calOnce    sync.Once
	calibrated *Catalog
)

func buildCalibrated() *Catalog {
	base := Load()
	specs := base.Kernels()
	smCfg := smsim.DefaultConfig()
	smCfg.MaxInstsPerWarp = 4096
	// Each RunBlocks call is a pure function of its program and config,
	// so the kernels are measured on GOMAXPROCS goroutines and each
	// result is stored by kernel index: the catalog comes out in kernel
	// order whatever the interleaving.
	results := make([]smsim.Result, len(specs))
	errs := make([]error, len(specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(specs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(specs) {
					return
				}
				// Run the kernel at its actual occupancy: TBsPerSM
				// concurrent blocks sharing the SM.
				results[i], errs[i] = smsim.RunBlocks(specs[i].Program, smCfg, specs[i].Params.TBsPerSM)
			}
		}()
	}
	wg.Wait()

	c := &Catalog{
		byLabel: make(map[string]*Spec),
		byName:  make(map[string]*Benchmark),
	}
	for i, s := range specs {
		if errs[i] != nil {
			panic(errs[i])
		}
		// The per-block CPI is the aggregate cycles-per-instruction
		// times the block count.
		warpCPI := results[i].CPI()
		if warpCPI <= 0 {
			panic("kernels: calibrated CPI not positive for " + s.Params.Label)
		}
		spec := *s
		spec.Params.BaseCPI = warpCPI * float64(s.Params.TBsPerSM)
		// Guard the clamp invariants of the sampler.
		if spec.Params.CPISigma < 0 {
			spec.Params.CPISigma = 0
		}
		if err := spec.Params.Validate(); err != nil {
			panic(err)
		}
		c.specs = append(c.specs, &spec)
		c.byLabel[spec.Params.Label] = &spec
	}
	for _, b := range base.Benchmarks() {
		c.benches = append(c.benches, b)
		c.byName[b.Name] = b
	}
	return c
}
