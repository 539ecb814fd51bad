package smsim_test

import (
	"fmt"
	"testing"

	"chimera/internal/kernels"
	"chimera/internal/smsim"
)

// TestCatalogMatchesReference runs every catalog kernel through
// RunBlocks and the reference model at every occupancy from one block
// to the kernel's TBsPerSM, sampled as the calibrated catalog samples
// (4096 instructions per warp) and unsampled, and requires identical
// Results and errors.
//
// Unsampled, the twelve kernels longer than 4096 instructions per warp
// put 130M warp instructions through the reference, about 40 s of CPU.
// Under -short or the race detector only their sampled runs, which
// cover each warp's first 4096 instructions, are compared.
func TestCatalogMatchesReference(t *testing.T) {
	for _, s := range kernels.Load().Kernels() {
		for _, maxInsts := range []int64{4096, 0} {
			t.Run(fmt.Sprintf("%s/max=%d", s.Params.Label, maxInsts), func(t *testing.T) {
				if maxInsts == 0 && s.Program.InstCount() > 4096 && (testing.Short() || raceEnabled) {
					t.Skip("unsampled run of a long kernel: skipped under -short and -race")
				}
				t.Parallel()
				cfg := smsim.DefaultConfig()
				cfg.MaxInstsPerWarp = maxInsts
				for blocks := 1; blocks <= s.Params.TBsPerSM; blocks++ {
					want, wantErr := smsim.ReferenceRunBlocks(s.Program, cfg, blocks)
					got, gotErr := smsim.RunBlocks(s.Program, cfg, blocks)
					if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
						t.Errorf("%d blocks: RunBlocks = %+v, %v; reference %+v, %v", blocks, got, gotErr, want, wantErr)
					}
				}
			})
		}
	}
}
