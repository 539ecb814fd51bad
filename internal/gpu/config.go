// Package gpu defines the static model of the simulated GPU: the device
// configuration of Table 1, per-kernel parameters derived from Table 2,
// the kernel estimate Chimera's cost models consume (§3.2; the running
// means behind it live in internal/sched/predict), and the snapshot
// types through which the scheduler observes SMs.
//
// The package is deliberately free of simulation machinery — it is the
// shared vocabulary between the discrete-event engine (internal/engine),
// the preemption-technique cost models (internal/preempt) and the Chimera
// selection algorithm (internal/core).
package gpu

import (
	"fmt"

	"chimera/internal/units"
)

// Config is the hardware configuration of the modelled GPU. The default
// matches Table 1 of the paper: a Fermi-class device with 30 SMs.
type Config struct {
	// NumSMs is the number of streaming multiprocessors.
	NumSMs int
	// SIMTWidth is the number of SIMD lanes per SM.
	SIMTWidth int
	// WarpSize is the number of threads that share one instruction stream.
	WarpSize int
	// RegistersPerSM is the size of one SM's register file, in 32-bit
	// registers.
	RegistersPerSM int
	// MaxTBsPerSM is the hardware cap on concurrently resident thread
	// blocks per SM.
	MaxTBsPerSM int
	// SharedMemPerSM is the per-SM scratch-pad capacity.
	SharedMemPerSM units.Bytes
	// MemPartitions is the number of memory partitions (each an L2 bank
	// plus a memory controller).
	MemPartitions int
	// Bandwidth is the aggregate DRAM bandwidth.
	Bandwidth units.BandwidthGBs
}

// DefaultConfig returns the Table 1 configuration.
func DefaultConfig() Config {
	return Config{
		NumSMs:         30,
		SIMTWidth:      8,
		WarpSize:       32,
		RegistersPerSM: 32768,
		MaxTBsPerSM:    8,
		SharedMemPerSM: 48 * units.KB,
		MemPartitions:  6,
		Bandwidth:      177.4,
	}
}

// Validate reports the first configuration error, if any.
func (c Config) Validate() error {
	switch {
	case c.NumSMs <= 0:
		return fmt.Errorf("gpu: NumSMs must be positive, got %d", c.NumSMs)
	case c.SIMTWidth <= 0:
		return fmt.Errorf("gpu: SIMTWidth must be positive, got %d", c.SIMTWidth)
	case c.WarpSize <= 0:
		return fmt.Errorf("gpu: WarpSize must be positive, got %d", c.WarpSize)
	case c.MaxTBsPerSM <= 0:
		return fmt.Errorf("gpu: MaxTBsPerSM must be positive, got %d", c.MaxTBsPerSM)
	case c.MemPartitions <= 0:
		return fmt.Errorf("gpu: MemPartitions must be positive, got %d", c.MemPartitions)
	case c.Bandwidth <= 0:
		return fmt.Errorf("gpu: Bandwidth must be positive, got %v", c.Bandwidth)
	}
	return nil
}

// PerSMBandwidth is the share of DRAM bandwidth one SM can count on when
// saving or restoring its context. Following §2.4, an SM is assumed to
// have only its 1/NumSMs share of global memory bandwidth.
func (c Config) PerSMBandwidth() units.BandwidthGBs {
	if c.NumSMs == 0 {
		return 0
	}
	return c.Bandwidth / units.BandwidthGBs(c.NumSMs)
}

// ContextTransferCycles is the time to move size bytes of context at one
// SM's bandwidth share — the building block of both the save and the
// restore half of a context switch.
func (c Config) ContextTransferCycles(size units.Bytes) units.Cycles {
	return units.TransferCycles(size, c.PerSMBandwidth())
}
