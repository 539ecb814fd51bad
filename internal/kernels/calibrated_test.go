package kernels

import "testing"

// calibratedCPI pins every kernel's calibrated BaseCPI, bit for bit:
// the warp-level model's measurement at 4096 instructions per warp and
// the kernel's TBsPerSM, times TBsPerSM. A faster or parallel build must
// reproduce these exactly.
var calibratedCPI = map[string]float64{
	"BS.0":  0x1.90d0cp+04,
	"BT.0":  0x1.b77d7d7d7d7d8p+03,
	"BT.1":  0x1.386p+04,
	"BP.0":  0x1.6e9f49f49f49fp+03,
	"BP.1":  0x1.06ef96f96f97p+05,
	"CP.0":  0x1.0005cp+03,
	"FWT.0": 0x1.03a39be8e6fa4p+05,
	"FWT.1": 0x1.91f15f15f15f1p+01,
	"FWT.2": 0x1.9261b8p+06,
	"HW.0":  0x1.abab5f34e47efp+03,
	"HS.0":  0x1.a9c55fc17734cp+01,
	"KM.0":  0x1.e0ae4p+04,
	"KM.1":  0x1.32297p+05,
	"LC.0":  0x1.5e802p+05,
	"LC.1":  0x1.a4a27p+05,
	"LC.2":  0x1.8616p+00,
	"LUD.0": 0x1.017089fde57edp+03,
	"LUD.1": 0x1.04126ce07422ap+03,
	"LUD.2": 0x1.c68ab81e44194p+02,
	"MUM.0": 0x1.32297p+05,
	"MUM.1": 0x1.04511e8d2b318p+05,
	"NW.0":  0x1.05c620f4586a2p+03,
	"NW.1":  0x1.05beae0e78dcap+03,
	"SAD.0": 0x1.90053p+05,
	"SAD.1": 0x1.90053p+05,
	"SAD.2": 0x1.8fdcaba1efba7p+05,
	"ST.0":  0x1.00854p+03,
}

func TestCalibratedCPIsPinned(t *testing.T) {
	// A fresh build besides the shared one, so that every run of this
	// test (under -count or -race) exercises the build's goroutines.
	for _, cat := range []*Catalog{LoadCalibrated(), buildCalibrated()} {
		if got, want := len(cat.Kernels()), len(calibratedCPI); got != want {
			t.Fatalf("calibrated catalog has %d kernels, want %d", got, want)
		}
		for _, s := range cat.Kernels() {
			if want, ok := calibratedCPI[s.Params.Label]; !ok || s.Params.BaseCPI != want {
				t.Errorf("%s: BaseCPI %x, want %x", s.Params.Label, s.Params.BaseCPI, want)
			}
		}
	}
}

// BenchmarkBuildCalibrated measures one full build of the calibrated
// catalog per iteration: the warp-level model run for all 27 kernels.
// LoadCalibrated builds only once per process, so the exhibit benchmarks
// never time this.
func BenchmarkBuildCalibrated(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkCatalog = buildCalibrated()
	}
}

var sinkCatalog *Catalog
