// Package smsim is a warp-level timing model of a single streaming
// multiprocessor executing one thread block of a kernelir program.
//
// The block-level simulator (internal/engine) advances whole thread
// blocks at a configured CPI; this package is the layer below it — the
// GPGPU-Sim-shaped substrate that justifies those CPIs. A thread block
// is W warps all executing the same program; each cycle the SM issues
// instructions from ready warps in round-robin (loose greedy-then-oldest)
// order, subject to SIMT-width occupancy, memory latency with a bounded
// number of outstanding misses (MSHRs), and intra-block barriers.
//
// The model is deliberately small: in-order issue per warp, no
// instruction cache, no operand collector, uniform memory latency. Those
// are the same simplifications Chimera's decision statistics are
// insensitive to — the scheduler only consumes per-block instruction
// counters and CPI (§3.2) — so the model's job is to produce realistic
// CPI *relationships* (memory-bound kernels slower than compute-bound
// ones, occupancy effects), not absolute DRAM timing.
package smsim

import (
	"fmt"
	"math/bits"

	"chimera/internal/kernelir"
	"chimera/internal/units"
)

// Config parameterizes the SM pipeline.
type Config struct {
	// Warps is the number of warps in the thread block.
	Warps int
	// IssueWidth is the number of instructions the SM issues per cycle
	// across all warps.
	IssueWidth int
	// WarpOccupancy is the number of cycles one warp instruction
	// occupies its issue slot: warp size / SIMT width (32/8 = 4 on the
	// Table 1 machine).
	WarpOccupancy int
	// ALULatency is the result latency of arithmetic instructions.
	ALULatency int
	// SharedLatency is the load-use latency of shared-memory accesses.
	SharedLatency int
	// MemLatency is the round-trip latency of a global load.
	MemLatency int
	// MaxOutstanding bounds concurrent global loads (MSHRs); further
	// loads stall at issue until a slot frees.
	MaxOutstanding int
	// MaxInstsPerWarp truncates execution (0 = run the whole program):
	// long catalog kernels can be sampled instead of fully executed.
	MaxInstsPerWarp int64
}

// DefaultConfig models one Table 1 SM: 8 warps (256 threads), single
// issue, 4-cycle warp occupancy at SIMT width 8, 400-cycle DRAM loads
// and 16 MSHRs.
func DefaultConfig() Config {
	return Config{
		Warps:          8,
		IssueWidth:     1,
		WarpOccupancy:  4,
		ALULatency:     8,
		SharedLatency:  24,
		MemLatency:     400,
		MaxOutstanding: 16,
	}
}

// Validate reports the first configuration error.
func (c Config) Validate() error {
	switch {
	case c.Warps <= 0:
		return fmt.Errorf("smsim: Warps must be positive")
	case c.IssueWidth <= 0:
		return fmt.Errorf("smsim: IssueWidth must be positive")
	case c.WarpOccupancy <= 0:
		return fmt.Errorf("smsim: WarpOccupancy must be positive")
	case c.ALULatency < 0 || c.SharedLatency < 0 || c.MemLatency < 0:
		return fmt.Errorf("smsim: negative latency")
	case c.MaxOutstanding <= 0:
		return fmt.Errorf("smsim: MaxOutstanding must be positive")
	case c.MaxInstsPerWarp < 0:
		return fmt.Errorf("smsim: negative MaxInstsPerWarp")
	}
	return nil
}

// Result is the timing outcome of one thread block.
type Result struct {
	// Cycles is the wall time of the block on the SM.
	Cycles units.Cycles
	// Insts is the number of warp instructions issued.
	Insts int64
	// Truncated reports that MaxInstsPerWarp cut execution short.
	Truncated bool
	// IssueStallCycles counts cycles where no warp could issue.
	IssueStallCycles units.Cycles
	// MemStalls counts issue attempts rejected for MSHR exhaustion.
	MemStalls int64
}

// CPI is the block's cycles per warp instruction.
func (r Result) CPI() float64 {
	if r.Insts == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.Insts)
}

// instClass is what the issue scan does with a warp when it reaches
// it: issue an instruction of one latency class, park the warp at a
// barrier, or retire it. It is cached per warp and recomputed only when
// the warp's cursor moves, so a scan never decodes an instruction.
type instClass uint8

const (
	// The issuing classes. Every instruction of one class holds its warp
	// for the same latency, so each class has one wake queue.
	classALU        instClass = iota // arithmetic, and any op without a memory latency
	classGlobalLoad                  // holds an MSHR for MemLatency
	classSharedLoad                  // shared- or constant-space load
	classAtomic                      // round-trips to memory before the warp proceeds
	classStore                       // store or notify: fire-and-forget through the store queue

	classBarrier
	classTruncated // the warp reached MaxInstsPerWarp
	classDone      // the warp exhausted the program

	numIssueClasses = int(classBarrier)
)

// classOf maps an instruction to its class.
func classOf(in kernelir.Instr) instClass {
	switch {
	case in.Op == kernelir.Barrier:
		return classBarrier
	case in.Op == kernelir.Load && in.Space == kernelir.Global:
		return classGlobalLoad
	case in.Op == kernelir.Load && (in.Space == kernelir.Shared || in.Space == kernelir.Constant):
		return classSharedLoad
	case in.Op == kernelir.Atomic:
		return classAtomic
	case in.Op == kernelir.Store || in.Op == kernelir.Notify:
		return classStore
	}
	return classALU
}

// warpState is one warp's execution cursor and the class of what it
// does next. Warps are stored by value in one contiguous array (the
// cursor is embedded). Hazard timing is not kept per warp: a live warp
// is ready, parked at its barrier, or waiting in exactly one wake queue.
type warpState struct {
	cursor cursor
	// issued counts instructions this warp has issued.
	issued int64
	// block is the thread block the warp belongs to (barriers are
	// block-scoped).
	block     int
	class     instClass
	atBarrier bool
}

// wakeEntry is one queued event: a warp and the cycle it is due.
type wakeEntry struct {
	at   int64
	warp int
}

// fifo is a ring of wake entries. Each queue adds one fixed latency to
// the current cycle, which never decreases, so its entries are in cycle
// order and the head is the earliest.
type fifo struct {
	ring       []wakeEntry
	head, size int
}

//chimera:hot
func (q *fifo) push(at int64, warp int) {
	i := q.head + q.size
	if i >= len(q.ring) {
		i -= len(q.ring)
	}
	q.ring[i] = wakeEntry{at: at, warp: warp}
	q.size++
}

// due reports whether the head entry is due by now.
//
//chimera:hot
func (q *fifo) due(now int64) bool { return q.size > 0 && q.ring[q.head].at <= now }

//chimera:hot
func (q *fifo) pop() int {
	w := q.ring[q.head].warp
	q.head++
	if q.head == len(q.ring) {
		q.head = 0
	}
	q.size--
	return w
}

// sm is the state of one RunBlocks call.
type sm struct {
	cfg   Config
	warps []warpState
	// ready has bit i set while warp i may be offered an issue slot: not
	// done, not parked, its last latency elapsed. global has bit i set
	// while warp i's class is classGlobalLoad, so a scan can count and
	// skip every MSHR-blocked warp of a word at once.
	ready, global []uint64
	// live counts each block's not-done warps and liveTotal all of them;
	// parked counts each block's warps at its barrier.
	live, parked []int
	liveTotal    int
	// releasable is set once some block has every live warp parked; the
	// next loop pass releases it.
	releasable bool
	// wake holds each issuing class's warps until the class latency
	// wakeLat elapses.
	wake    [numIssueClasses]fifo
	wakeLat [numIssueClasses]int64
	// loads holds the outstanding global loads by completion cycle: its
	// size is the number of MSHRs taken.
	loads fifo
	now   int64
	res   Result
}

// Run executes one thread block of p on the modelled SM and reports its
// timing.
func Run(p *kernelir.Program, cfg Config) (Result, error) {
	return RunBlocks(p, cfg, 1)
}

// RunBlocks executes nBlocks concurrent thread blocks of p on the
// modelled SM — the occupancy the kernel actually runs at — and reports
// aggregate timing. Barriers synchronize warps within their own block
// only. The per-block CPI at occupancy is nBlocks × Cycles / Insts.
//
// Each loop pass handles the current cycle: retire the loads due and
// wake the warps whose latency elapsed, release the barriers every live
// warp reached, then offer up to IssueWidth slots to the ready warps in
// round-robin order from rr. A pass that issues nothing jumps to the
// next timed event. A pass costs work in proportion to the warps that act in it:
// waiting warps sit in per-latency queues, ready ones in a bitmask, and
// MSHR-blocked ones are counted by popcount. rr advances once per pass,
// idle passes included, which fixes the issue order of every later
// cycle; smsim_test.go keeps the plain scanning loop as an oracle that
// every Result must match.
//
//chimera:hot
func RunBlocks(p *kernelir.Program, cfg Config, nBlocks int) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if nBlocks <= 0 {
		return Result{}, fmt.Errorf("smsim: nBlocks must be positive")
	}
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	n := cfg.Warps * nBlocks
	words := (n + 63) / 64
	s := sm{
		cfg:       cfg,
		warps:     make([]warpState, n),  //chimera:allow hotalloc one-time block setup: allocated once per RunBlocks call, amortized over every simulated cycle
		ready:     make([]uint64, words), //chimera:allow hotalloc one-time block setup: allocated once per RunBlocks call, maintained bit by bit after
		global:    make([]uint64, words), //chimera:allow hotalloc one-time block setup: allocated once per RunBlocks call, maintained bit by bit after
		live:      make([]int, nBlocks),  //chimera:allow hotalloc one-time block setup: allocated once per RunBlocks call, maintained incrementally after
		parked:    make([]int, nBlocks),  //chimera:allow hotalloc one-time block setup: allocated once per RunBlocks call, reused every cycle
		liveTotal: n,
	}
	// A warp waits in at most one wake queue and holds at most one load,
	// so n entries bound every queue.
	ring := make([]wakeEntry, (numIssueClasses+1)*n) //chimera:allow hotalloc one-time block setup: one backing array for every queue, allocated once per RunBlocks call
	for c := range s.wake {
		s.wake[c].ring = ring[c*n : (c+1)*n]
	}
	s.loads.ring = ring[numIssueClasses*n:]
	s.wakeLat = [numIssueClasses]int64{
		classALU:        int64(cfg.ALULatency),
		classGlobalLoad: int64(max(cfg.WarpOccupancy, cfg.MemLatency)),
		classSharedLoad: int64(cfg.SharedLatency),
		classAtomic:     int64(cfg.MemLatency),
		classStore:      int64(cfg.WarpOccupancy),
	}
	for b := range s.live {
		s.live[b] = cfg.Warps
	}
	for i := range s.warps {
		w := &s.warps[i]
		w.block = i / cfg.Warps
		w.cursor.init(p)
		s.reclassify(i)
		s.ready[i>>6] |= uint64(1) << (i & 63)
	}

	rr := 0 // round-robin pointer
	for {
		s.wakeDue()
		if s.releasable {
			s.release()
		}
		issued := s.issueRange(rr, n, 0)
		if issued < cfg.IssueWidth {
			issued = s.issueRange(0, rr, issued)
		}
		rr++
		if rr == n {
			rr = 0
		}

		// Termination: every warp done.
		if s.liveTotal == 0 {
			s.res.Cycles = units.Cycles(s.now)
			return s.res, nil
		}

		if issued == 0 {
			// Fast-forward to the next cycle anything can change.
			next := s.nextEvent()
			if next < 0 {
				// No timed event pending. A block whose live warps are all
				// parked is released at the top of the next pass without
				// time advancing.
				if s.releasable {
					continue
				}
				// Otherwise no barrier can release (a warp finished
				// early): deadlock in the kernel, not the simulator.
				return Result{}, fmt.Errorf("smsim: %s: barrier deadlock at cycle %d", p.Name, s.now)
			}
			s.res.IssueStallCycles += units.Cycles(next - s.now)
			s.now = next
		} else {
			s.now++
		}
	}
}

// reclassify recomputes warp i's class after its cursor moved, and its
// bit in global. Exhaustion is tested before truncation.
//
//chimera:hot
func (s *sm) reclassify(i int) {
	w := &s.warps[i]
	in, ok := w.cursor.peek()
	switch {
	case !ok:
		w.class = classDone
	case s.cfg.MaxInstsPerWarp > 0 && w.issued >= s.cfg.MaxInstsPerWarp:
		w.class = classTruncated
	default:
		w.class = classOf(in)
	}
	bit := uint64(1) << (i & 63)
	if w.class == classGlobalLoad {
		s.global[i>>6] |= bit
	} else {
		s.global[i>>6] &^= bit
	}
}

// wakeDue retires the global loads due by now, freeing their MSHRs, and
// readies the warps whose latency has elapsed.
//
//chimera:hot
func (s *sm) wakeDue() {
	for s.loads.due(s.now) {
		s.loads.pop()
	}
	for c := range s.wake {
		q := &s.wake[c]
		for q.due(s.now) {
			i := q.pop()
			s.ready[i>>6] |= uint64(1) << (i & 63)
		}
	}
}

// release steps every block whose live warps all reached its barrier
// past the barrier. A parked warp was ready when it parked and nothing
// timed is pending on it, so it is ready again at once.
//
//chimera:hot
func (s *sm) release() {
	for b := range s.live {
		if s.live[b] == 0 || s.parked[b] != s.live[b] {
			continue
		}
		for i := b * s.cfg.Warps; i < (b+1)*s.cfg.Warps; i++ {
			if w := &s.warps[i]; w.atBarrier {
				w.atBarrier = false
				w.cursor.advance()
				s.reclassify(i)
				s.ready[i>>6] |= uint64(1) << (i & 63)
			}
		}
		s.parked[b] = 0
	}
	s.releasable = false
}

// issueRange offers this cycle's issue slots to the ready warps in
// [lo, hi), in index order, and returns the slots used so far: issued
// on entry plus those taken here. It stops when the slots run out, so
// warps past the last issuer are not reached.
//
//chimera:hot
func (s *sm) issueRange(lo, hi, issued int) int {
	for k := lo >> 6; k<<6 < hi; k++ {
		m := s.ready[k]
		if k == lo>>6 {
			m &= ^uint64(0) << (lo & 63)
		}
		if end := hi - k<<6; end < 64 {
			m &= uint64(1)<<end - 1
		}
		for m != 0 {
			if s.loads.size >= s.cfg.MaxOutstanding {
				// Every MSHR is taken, so each global load in m stalls:
				// count those ahead of the next warp that can act, and
				// skip them.
				act := m &^ s.global[k]
				if act == 0 {
					s.res.MemStalls += int64(bits.OnesCount64(m))
					break
				}
				ahead := act&-act - 1
				s.res.MemStalls += int64(bits.OnesCount64(m & ahead))
				m &^= ahead
			}
			i := k<<6 + bits.TrailingZeros64(m)
			m &= m - 1
			if s.act(i) {
				issued++
				if issued == s.cfg.IssueWidth {
					return issued
				}
			}
		}
	}
	return issued
}

// act lets ready warp i do what its class says and reports whether it
// took an issue slot. A global load reaches act only with an MSHR free.
//
//chimera:hot
func (s *sm) act(i int) bool {
	w := &s.warps[i]
	s.ready[i>>6] &^= uint64(1) << (i & 63)
	switch w.class {
	case classDone, classTruncated:
		if w.class == classTruncated {
			s.res.Truncated = true
		}
		s.live[w.block]--
		s.liveTotal--
		s.noteParked(w.block)
		return false
	case classBarrier:
		// The barrier instruction issues (it is part of the
		// warp-granularity instruction count) without taking a slot, and
		// parks the warp.
		w.atBarrier = true
		w.issued++
		s.res.Insts++
		s.parked[w.block]++
		s.noteParked(w.block)
		return false
	}
	w.issued++
	s.res.Insts++
	if w.class == classGlobalLoad {
		s.loads.push(s.now+int64(s.cfg.MemLatency), i)
	}
	s.wake[w.class].push(s.now+s.wakeLat[w.class], i)
	w.cursor.advance()
	s.reclassify(i)
	return true
}

// noteParked marks block b for release once every live warp of it is
// parked at its barrier. Once true, that stays true until the release:
// none of the block's live warps is ready to park or finish.
//
//chimera:hot
func (s *sm) noteParked(b int) {
	if s.live[b] > 0 && s.parked[b] == s.live[b] {
		s.releasable = true
	}
}

// nextEvent returns the earliest cycle a load retires or a waiting warp
// wakes, or -1 when nothing is timed. Every queued cycle is later than
// now: wakeDue drained the due ones, and a pass that issued nothing
// queued none.
//
//chimera:hot
func (s *sm) nextEvent() int64 {
	next := int64(-1)
	if s.loads.size > 0 {
		next = s.loads.ring[s.loads.head].at
	}
	for c := range s.wake {
		if q := &s.wake[c]; q.size > 0 && (next < 0 || q.ring[q.head].at < next) {
			next = q.ring[q.head].at
		}
	}
	return next
}
