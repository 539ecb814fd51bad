package smsim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"chimera/internal/kernelir"
	"chimera/internal/units"
)

func cfgFor(t *testing.T) Config {
	t.Helper()
	c := DefaultConfig()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

func run(t *testing.T, p *kernelir.Program, cfg Config) Result {
	t.Helper()
	r, err := Run(p, cfg)
	if err != nil {
		t.Fatalf("Run(%s): %v", p.Name, err)
	}
	return r
}

func TestCursorStreamsProgram(t *testing.T) {
	p := kernelir.NewBuilder("p")
	p.ALU(2)
	p.Loop(3, func(b *kernelir.Builder) {
		b.LoadGVar("a", "i")
		b.Loop(2, func(b *kernelir.Builder) { b.ALU(1) })
	})
	p.StoreG("out", "t")
	prog := p.Build()

	c := newCursor(prog)
	var ops []kernelir.Op
	for {
		in, ok := c.peek()
		if !ok {
			break
		}
		ops = append(ops, in.Op)
		c.advance()
	}
	if int64(len(ops)) != prog.InstCount() {
		t.Fatalf("cursor streamed %d insts, program has %d", len(ops), prog.InstCount())
	}
	want := []kernelir.Op{
		kernelir.ALU, kernelir.ALU,
		kernelir.Load, kernelir.ALU, kernelir.ALU,
		kernelir.Load, kernelir.ALU, kernelir.ALU,
		kernelir.Load, kernelir.ALU, kernelir.ALU,
		kernelir.Store,
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("stream %v, want %v", ops, want)
		}
	}
}

func TestCursorMatchesInstCount(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomProgram(r)
		c := newCursor(p)
		var n int64
		for {
			if _, ok := c.peek(); !ok {
				break
			}
			n++
			c.advance()
			if n > 1_000_000 {
				return false
			}
		}
		return n == p.InstCount()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAllInstructionsIssue(t *testing.T) {
	p := kernelir.NewBuilder("p")
	p.Loop(50, func(b *kernelir.Builder) {
		b.LoadGVar("a", "i")
		b.ALU(3)
		b.StoreGVar("b", "i")
	})
	prog := p.Build()
	cfg := cfgFor(t)
	res := run(t, prog, cfg)
	if want := prog.InstCount() * int64(cfg.Warps); res.Insts != want {
		t.Errorf("issued %d, want %d", res.Insts, want)
	}
	if res.Truncated {
		t.Error("unexpected truncation")
	}
	if res.Cycles == 0 {
		t.Error("zero wall time")
	}
}

func TestMemoryBoundSlowerThanComputeBound(t *testing.T) {
	compute := kernelir.NewBuilder("compute")
	compute.Loop(200, func(b *kernelir.Builder) { b.ALU(4) })
	memory := kernelir.NewBuilder("memory")
	memory.Loop(200, func(b *kernelir.Builder) { b.LoadGVar("a", "i"); b.ALU(3) })

	cfg := cfgFor(t)
	c := run(t, compute.Build(), cfg)
	m := run(t, memory.Build(), cfg)
	if m.CPI() <= c.CPI() {
		t.Errorf("memory-bound CPI %.2f not above compute-bound %.2f", m.CPI(), c.CPI())
	}
}

func TestMoreWarpsHideLatency(t *testing.T) {
	// With more warps the SM overlaps memory latency: CPI per warp
	// instruction (block progress) improves.
	p := kernelir.NewBuilder("mem")
	p.Loop(100, func(b *kernelir.Builder) { b.LoadGVar("a", "i"); b.ALU(2) })
	prog := p.Build()

	cfg1 := cfgFor(t)
	cfg1.Warps = 1
	cfg8 := cfgFor(t)
	cfg8.Warps = 8

	r1 := run(t, prog, cfg1)
	r8 := run(t, prog, cfg8)
	// Same per-warp work; the 8-warp block should take far less than 8×
	// the single warp's time.
	if float64(r8.Cycles) > 4*float64(r1.Cycles) {
		t.Errorf("8 warps took %v vs 1 warp %v: no latency hiding", r8.Cycles, r1.Cycles)
	}
}

func TestMSHRLimitThrottles(t *testing.T) {
	p := kernelir.NewBuilder("streams")
	p.Loop(100, func(b *kernelir.Builder) { b.LoadGVar("a", "i") })
	prog := p.Build()

	narrow := cfgFor(t)
	narrow.MaxOutstanding = 1
	wide := cfgFor(t)
	wide.MaxOutstanding = 64

	rNarrow := run(t, prog, narrow)
	rWide := run(t, prog, wide)
	if rNarrow.Cycles <= rWide.Cycles {
		t.Errorf("1 MSHR (%v) not slower than 64 MSHRs (%v)", rNarrow.Cycles, rWide.Cycles)
	}
	if rNarrow.MemStalls == 0 {
		t.Error("no MSHR stalls recorded under a 1-MSHR config")
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	p := kernelir.NewBuilder("bar")
	p.LoadG("a", "t") // 400-cycle load
	p.Barrier()
	p.ALU(1)
	prog := p.Build()
	cfg := cfgFor(t)
	res := run(t, prog, cfg)
	// No warp can pass the barrier before its load returned.
	if res.Cycles < 400 {
		t.Errorf("block finished in %v despite a pre-barrier load", res.Cycles)
	}
	if want := prog.InstCount() * int64(cfg.Warps); res.Insts != want {
		t.Errorf("issued %d, want %d (barriers are not issued)", res.Insts, want)
	}
}

func TestTruncation(t *testing.T) {
	p := kernelir.NewBuilder("long")
	p.Loop(10000, func(b *kernelir.Builder) { b.ALU(4) })
	prog := p.Build()
	cfg := cfgFor(t)
	cfg.MaxInstsPerWarp = 100
	res := run(t, prog, cfg)
	if !res.Truncated {
		t.Error("truncation not reported")
	}
	if want := int64(100) * int64(cfg.Warps); res.Insts != want {
		t.Errorf("issued %d, want %d", res.Insts, want)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Warps = 0 },
		func(c *Config) { c.IssueWidth = 0 },
		func(c *Config) { c.WarpOccupancy = 0 },
		func(c *Config) { c.MemLatency = -1 },
		func(c *Config) { c.MaxOutstanding = 0 },
		func(c *Config) { c.MaxInstsPerWarp = -1 },
	}
	for i, mutate := range bad {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestEmptyProgram(t *testing.T) {
	prog := kernelir.NewBuilder("empty").Build()
	res := run(t, prog, cfgFor(t))
	if res.Insts != 0 || res.Cycles != 0 {
		t.Errorf("empty program: %+v", res)
	}
}

// TestCPIFloor: CPI can never beat the issue bandwidth bound
// (WarpOccupancy / min(Warps, ...) per warp instruction as block
// aggregate — with IssueWidth 1 and occupancy 4, a block cannot retire
// faster than 1 instruction per cycle... the per-warp occupancy bounds
// each warp at 1 inst / WarpOccupancy cycles; the block at IssueWidth
// insts per cycle.
func TestCPIFloor(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomProgram(r)
		if p.InstCount() == 0 {
			return true
		}
		cfg := DefaultConfig()
		cfg.Warps = r.Intn(8) + 1
		res, err := Run(p, cfg)
		if err != nil {
			return false
		}
		// Block-aggregate issue bound:
		minCycles := res.Insts / int64(cfg.IssueWidth)
		// Per-warp occupancy bound:
		perWarp := p.InstCount() * int64(cfg.WarpOccupancy)
		if perWarp > minCycles {
			minCycles = perWarp
		}
		return int64(res.Cycles) >= minCycles-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// randomProgram builds small random programs (barrier-free: truncation
// with barriers is legal but the random generator keeps things simple).
func randomProgram(r *rand.Rand) *kernelir.Program {
	b := kernelir.NewBuilder("rand")
	n := r.Intn(5) + 1
	for i := 0; i < n; i++ {
		switch r.Intn(4) {
		case 0:
			b.ALU(r.Intn(4) + 1)
		case 1:
			b.LoadG("a", "t")
		case 2:
			b.StoreG("b", "t")
		case 3:
			trip := r.Intn(6)
			b.Loop(trip, func(inner *kernelir.Builder) {
				inner.LoadGVar("c", "i")
				inner.ALU(r.Intn(3) + 1)
			})
		}
	}
	return b.Build()
}

func TestRunBlocksOccupancy(t *testing.T) {
	// A memory-bound program at higher occupancy hides more latency:
	// total instructions scale with blocks while wall time grows less
	// than proportionally (until the issue slot saturates).
	p := kernelir.NewBuilder("mem")
	p.Loop(60, func(b *kernelir.Builder) { b.LoadGVar("a", "i"); b.ALU(2) })
	prog := p.Build()
	cfg := cfgFor(t)
	cfg.MaxOutstanding = 64

	one, err := RunBlocks(prog, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	four, err := RunBlocks(prog, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if four.Insts != 4*one.Insts {
		t.Errorf("4-block insts = %d, want %d", four.Insts, 4*one.Insts)
	}
	if float64(four.Cycles) >= 4*float64(one.Cycles) {
		t.Errorf("no latency hiding at occupancy 4: %v vs %v", four.Cycles, one.Cycles)
	}
}

func TestRunBlocksBarriersAreBlockScoped(t *testing.T) {
	// Barriers only synchronize within a block: two blocks whose warps
	// park at their own barriers must both release and finish.
	p := kernelir.NewBuilder("bar")
	p.LoadG("a", "t")
	p.Barrier()
	p.ALU(2)
	prog := p.Build()
	cfg := cfgFor(t)
	res, err := RunBlocks(prog, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if want := prog.InstCount() * int64(cfg.Warps) * 3; res.Insts != want {
		t.Errorf("issued %d, want %d", res.Insts, want)
	}
}

func TestRunBlocksValidation(t *testing.T) {
	prog := kernelir.NewBuilder("p").ALU(1).Build()
	if _, err := RunBlocks(prog, DefaultConfig(), 0); err == nil {
		t.Error("zero blocks accepted")
	}
}

// checkAgainstReference fails t unless RunBlocks returns exactly the
// reference's Result and error for p, cfg and nBlocks.
func checkAgainstReference(t *testing.T, p *kernelir.Program, cfg Config, nBlocks int) {
	t.Helper()
	want, wantErr := referenceRunBlocks(p, cfg, nBlocks)
	got, gotErr := RunBlocks(p, cfg, nBlocks)
	if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("RunBlocks(%s, %+v, %d) = %+v, %v; reference %+v, %v", p.Name, cfg, nBlocks, got, gotErr, want, wantErr)
	}
}

// randomKernel builds a small random program over every instruction
// class the model distinguishes. randomProgram has no barriers, shared
// or constant loads, atomics, notifies or repeats, so it reaches only
// part of the issue loop; the oracle needs all of it. Ops and spaces
// outside the named ones run at ALU latency, and are drawn too.
func randomKernel(r *rand.Rand, depth int) []kernelir.Stmt {
	var body []kernelir.Stmt
	for n := r.Intn(5) + 1; n > 0; n-- {
		in := kernelir.Instr{Addr: kernelir.Addr{Buf: "a", Tag: "t"}, Repeat: r.Intn(4)}
		switch r.Intn(11) {
		case 0:
			in.Op = kernelir.ALU
		case 1, 2:
			in.Op, in.Space = kernelir.Load, kernelir.Global
		case 3:
			in.Op, in.Space = kernelir.Load, kernelir.Space(1+r.Intn(3)) // shared, constant, or another space
		case 4:
			in.Op, in.Space = kernelir.Store, kernelir.Space(r.Intn(2))
		case 5:
			in.Op = kernelir.Atomic
		case 6:
			in.Op = kernelir.Notify
		case 7:
			in.Op = kernelir.Op(6) // an op the model does not name
		case 8:
			in.Op = kernelir.Barrier
		default:
			if depth < 2 {
				body = append(body, kernelir.Loop{Trip: r.Intn(6), Body: randomKernel(r, depth+1)})
				continue
			}
			in.Op = kernelir.ALU
		}
		body = append(body, in)
	}
	return body
}

// randomConfig draws a Config from the fuzzer's raw bytes: up to 96
// warps (more than one ready-mask word), issue widths above 1, zero
// latencies, MemLatency below WarpOccupancy, from one MSHR up, and
// truncation.
func randomConfig(warps, width, occ, alu, shared uint8, mem uint16, mshr, maxInsts uint8) Config {
	return Config{
		Warps:           1 + int(warps)%24,
		IssueWidth:      1 + int(width)%4,
		WarpOccupancy:   1 + int(occ)%8,
		ALULatency:      int(alu) % 16,
		SharedLatency:   int(shared) % 40,
		MemLatency:      int(mem) % 600,
		MaxOutstanding:  1 + int(mshr)%24,
		MaxInstsPerWarp: int64(maxInsts) % 48,
	}
}

// FuzzRunBlocks requires RunBlocks to match the reference model on
// random programs and configurations.
func FuzzRunBlocks(f *testing.F) {
	f.Add(int64(1), uint8(7), uint8(0), uint8(3), uint8(8), uint8(24), uint16(400), uint8(15), uint8(0), uint8(0))
	f.Add(int64(2), uint8(7), uint8(1), uint8(3), uint8(0), uint8(0), uint16(2), uint8(0), uint8(9), uint8(3))
	f.Add(int64(3), uint8(23), uint8(3), uint8(7), uint8(5), uint8(3), uint16(0), uint8(3), uint8(0), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, warps, width, occ, alu, shared uint8, mem uint16, mshr, maxInsts, blocks uint8) {
		r := rand.New(rand.NewSource(seed))
		var p *kernelir.Program
		if seed%2 == 0 {
			p = randomProgram(r)
		} else {
			p = &kernelir.Program{Name: "fuzz", Body: randomKernel(r, 0)}
		}
		cfg := randomConfig(warps, width, occ, alu, shared, mem, mshr, maxInsts)
		checkAgainstReference(t, p, cfg, 1+int(blocks)%4)
	})
}

// TestRunBlocksMatchesReference is FuzzRunBlocks over a fixed stream of
// draws, so every test run covers far more than the seed corpus.
func TestRunBlocksMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for i := 0; i < 2000; i++ {
		var p *kernelir.Program
		if i%4 == 0 {
			p = randomProgram(r)
		} else {
			p = &kernelir.Program{Name: fmt.Sprintf("rand%d", i), Body: randomKernel(r, 0)}
		}
		u8 := func() uint8 { return uint8(r.Intn(256)) }
		cfg := randomConfig(u8(), u8(), u8(), u8(), u8(), uint16(r.Intn(1<<16)), u8(), u8())
		if i%3 == 0 {
			cfg.MaxInstsPerWarp = 0
		}
		checkAgainstReference(t, p, cfg, 1+r.Intn(4))
	}
}

// The reference model: the plain statement of the issue loop, which
// RunBlocks must match, Result and error, for every program and Config.
// Every pass scans all warps three times (retire, issue, fast-forward)
// and decodes each scanned warp's instruction; RunBlocks does the same
// work with wake queues and a ready bitmask.

// refWarpState is one warp's execution cursor and hazard state. Warps are
// stored by value in one contiguous array (the cursor is embedded), so
// the per-cycle scans walk linear memory instead of chasing pointers.
type refWarpState struct {
	cursor cursor
	// block is the thread block the warp belongs to (barriers are
	// block-scoped).
	block int
	// readyAt is the cycle the warp may issue its next instruction
	// (result hazards modelled as full stalls: in-order, no scoreboard).
	readyAt int64
	// atBarrier marks a warp parked at a barrier.
	atBarrier bool
	// done marks a warp that exhausted the program.
	done bool
	// issued counts instructions this warp has issued.
	issued int64
	// pendingLoad, if non-negative, is the completion cycle of the
	// warp's outstanding global load (one per warp: in-order).
	pendingLoad int64
}

// referenceRunBlocks executes nBlocks concurrent thread blocks of p on
// the modelled SM — the occupancy the kernel actually runs at — and reports
// aggregate timing. Barriers synchronize warps within their own block
// only. The per-block CPI at occupancy is nBlocks × Cycles / Insts.
func referenceRunBlocks(p *kernelir.Program, cfg Config, nBlocks int) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if nBlocks <= 0 {
		return Result{}, fmt.Errorf("smsim: nBlocks must be positive")
	}
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	// Warps live in one value array (cursors embedded): the per-cycle
	// scans below walk contiguous memory, and setup costs one allocation
	// instead of two per warp.
	warps := make([]refWarpState, cfg.Warps*nBlocks)
	for i := range warps {
		w := &warps[i]
		w.block = i / cfg.Warps
		w.pendingLoad = -1
		w.cursor.init(p)
	}

	var res Result
	var now int64
	outstanding := 0
	barrierParked := make([]int, nBlocks)
	// live counts the not-done warps per block, and liveTotal across
	// blocks, maintained incrementally as warps retire — the inner loop
	// never recounts (or reallocates) them.
	live := make([]int, nBlocks)
	for b := range live {
		live[b] = cfg.Warps
	}
	liveTotal := len(warps)
	rr := 0 // round-robin pointer

	for {
		// Retire completed loads at the current cycle.
		for i := range warps {
			w := &warps[i]
			if w.pendingLoad >= 0 && w.pendingLoad <= now {
				w.pendingLoad = -1
				outstanding--
			}
		}
		// Release a block's barrier once every live warp of the block
		// reached it (barriers are intra-block, §2.1). Block b's warps
		// are the contiguous run [b·Warps, (b+1)·Warps).
		for b := 0; b < nBlocks; b++ {
			if live[b] > 0 && barrierParked[b] == live[b] {
				for i := b * cfg.Warps; i < (b+1)*cfg.Warps; i++ {
					if w := &warps[i]; w.atBarrier {
						w.atBarrier = false
						w.cursor.advance()
					}
				}
				barrierParked[b] = 0
			}
		}

		// Issue up to IssueWidth instructions from ready warps.
		issuedThisCycle := 0
		for scan := 0; scan < len(warps) && issuedThisCycle < cfg.IssueWidth; scan++ {
			i := rr + scan
			if i >= len(warps) {
				i -= len(warps)
			}
			w := &warps[i]
			if w.done || w.atBarrier || w.readyAt > now || w.pendingLoad >= 0 {
				continue
			}
			in, ok := w.cursor.peek()
			if !ok {
				w.done = true
				live[w.block]--
				liveTotal--
				continue
			}
			if cfg.MaxInstsPerWarp > 0 && w.issued >= cfg.MaxInstsPerWarp {
				w.done = true
				live[w.block]--
				liveTotal--
				res.Truncated = true
				continue
			}
			if in.Op == kernelir.Barrier {
				// The barrier instruction issues (it is part of the
				// warp-granularity instruction count) and parks the warp.
				w.atBarrier = true
				barrierParked[w.block]++
				w.issued++
				res.Insts++
				continue
			}
			if isGlobalLoad(in) && outstanding >= cfg.MaxOutstanding {
				res.MemStalls++
				continue
			}
			// Issue.
			issuedThisCycle++
			w.issued++
			res.Insts++
			w.readyAt = now + int64(cfg.WarpOccupancy)
			switch {
			case isGlobalLoad(in):
				w.pendingLoad = now + int64(cfg.MemLatency)
				outstanding++
			case in.Op == kernelir.Load && in.Space == kernelir.Shared:
				w.readyAt = now + int64(cfg.SharedLatency)
			case in.Op == kernelir.Load && in.Space == kernelir.Constant:
				w.readyAt = now + int64(cfg.SharedLatency)
			case in.Op == kernelir.Atomic:
				// Atomics round-trip to memory before the warp proceeds.
				w.readyAt = now + int64(cfg.MemLatency)
			case in.Op == kernelir.Store || in.Op == kernelir.Notify:
				// Fire-and-forget through the store queue.
			default: // ALU
				w.readyAt = now + int64(cfg.ALULatency)
			}
			w.cursor.advance()
		}
		rr++
		if rr == len(warps) {
			rr = 0
		}

		// Termination: every warp done.
		if liveTotal == 0 {
			res.Cycles = units.Cycles(now)
			return res, nil
		}

		if issuedThisCycle == 0 {
			// Fast-forward to the next cycle anything can change.
			next := int64(-1)
			for i := range warps {
				w := &warps[i]
				if w.done {
					continue
				}
				if w.pendingLoad >= 0 {
					if w.pendingLoad > now && (next < 0 || w.pendingLoad < next) {
						next = w.pendingLoad
					}
				} else if !w.atBarrier {
					if w.readyAt > now && (next < 0 || w.readyAt < next) {
						next = w.readyAt
					}
				}
			}
			if next < 0 {
				// No timed event pending. If some block has every live
				// warp parked at its barrier, the release happens at the
				// top of the next loop pass without time advancing. The
				// live/parked counters are already maintained, so this
				// check costs one pass over the blocks.
				releasable := false
				for b := 0; b < nBlocks; b++ {
					if live[b] > 0 && barrierParked[b] == live[b] {
						releasable = true
					}
				}
				if releasable {
					continue
				}
				// Otherwise no barrier can release (a warp finished
				// early): deadlock in the kernel, not the simulator.
				return Result{}, fmt.Errorf("smsim: %s: barrier deadlock at cycle %d", p.Name, now)
			}
			res.IssueStallCycles += units.Cycles(next - now)
			now = next
		} else {
			now++
		}
	}
}

func isGlobalLoad(in kernelir.Instr) bool {
	return in.Op == kernelir.Load && in.Space == kernelir.Global
}
