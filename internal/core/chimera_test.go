package core

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"chimera/internal/gpu"
	"chimera/internal/preempt"
	"chimera/internal/units"
)

// estimate returns a warm estimate for a synthetic kernel: 10000 insts
// per block at CPI 4, 4 blocks per SM. The SM switch latency is ~11.1µs
// (4×16kB at the SM's bandwidth share), under a 15µs constraint.
func estimate(strict bool) gpu.KernelEstimate {
	cfg := gpu.DefaultConfig()
	return gpu.KernelEstimate{
		AvgInstsPerTB:    10000,
		HasInsts:         true,
		AvgCPI:           4,
		HasCPI:           true,
		AvgCyclesPerTB:   40000,
		HasCycles:        true,
		SMIPC:            1,
		HasIPC:           true,
		SMSwitchCycles:   cfg.ContextTransferCycles(4 * 16 * units.KB),
		TBSwitchCycles:   cfg.ContextTransferCycles(16 * units.KB),
		StrictIdempotent: strict,
	}
}

func smWith(id int, executed ...int64) gpu.SMSnapshot {
	sm := gpu.SMSnapshot{SM: gpu.SMID(id)}
	for i, e := range executed {
		sm.TBs = append(sm.TBs, gpu.TBSnapshot{
			Index: id*100 + i, Executed: e, RunCycles: units.Cycles(e * 4),
		})
	}
	return sm
}

var relaxed = preempt.Options{Relaxed: true}

const us15 = 15 * units.CyclesPerMicrosecond

func TestPlanSMCoversEveryBlockOnce(t *testing.T) {
	sm := smWith(0, 100, 4000, 9900)
	plan := PlanSM(sm, estimate(true), us15, relaxed)
	if len(plan.TBs) != 3 {
		t.Fatalf("plan covers %d blocks, want 3", len(plan.TBs))
	}
	seen := map[int]bool{}
	for _, tb := range plan.TBs {
		if seen[tb.Index] {
			t.Errorf("block %d planned twice", tb.Index)
		}
		seen[tb.Index] = true
	}
}

func TestPlanSMFigure4Shape(t *testing.T) {
	// Early block -> flush, late block -> drain (Figure 4 / §2.5).
	sm := smWith(0, 100, 9950)
	plan := PlanSM(sm, estimate(true), us15, relaxed)
	byIndex := map[int]preempt.Technique{}
	for _, tb := range plan.TBs {
		byIndex[tb.Index] = tb.Technique
	}
	if byIndex[0] != preempt.Flush {
		t.Errorf("early block got %v, want Flush", byIndex[0])
	}
	if byIndex[1] != preempt.Drain {
		t.Errorf("late block got %v, want Drain", byIndex[1])
	}
}

func TestPlanSMSwitchWhenConstraintAllows(t *testing.T) {
	// A mid-progress block of a NON-idempotent, breached kernel can
	// neither flush nor drain within 15µs; switch (≈11.1µs here) is the
	// only feasible choice.
	est := estimate(false)
	// 7000 insts remain at CPI 4 -> 20µs drain; breached -> no flush;
	// switch (≈11.1µs) is the only technique inside 15µs.
	sm := gpu.SMSnapshot{SM: 0, TBs: []gpu.TBSnapshot{{
		Index: 0, Executed: 3000, RunCycles: 12000, Breached: true,
	}}}
	plan := PlanSM(sm, est, us15, relaxed)
	if plan.TBs[0].Technique != preempt.Switch {
		t.Errorf("breached mid-progress block got %v, want Switch", plan.TBs[0].Technique)
	}
}

func TestPlanSMSwitchFallback(t *testing.T) {
	// With a constraint below every technique's latency, lines 14-16
	// fall back to context switching regardless.
	est := estimate(false)
	sm := gpu.SMSnapshot{SM: 0, TBs: []gpu.TBSnapshot{{
		Index: 0, Executed: 5000, RunCycles: 20000, Breached: true,
	}}}
	plan := PlanSM(sm, est, 10, relaxed) // 10 cycles: nothing fits
	if plan.TBs[0].Technique != preempt.Switch {
		t.Errorf("fallback technique %v, want Switch", plan.TBs[0].Technique)
	}
	if plan.MeetsLatency(10) {
		t.Error("fallback plan cannot meet the impossible constraint")
	}
}

func TestPlanSMPicksCheapestFeasible(t *testing.T) {
	// For each block the chosen technique must be the minimum-overhead
	// one among those meeting the constraint (when any meets it).
	est := estimate(true)
	sm := smWith(0, 100, 2500, 5000, 7500, 9900)
	plan := PlanSM(sm, est, us15, relaxed)
	maxExec := preempt.MaxExecuted(sm)
	for i, tb := range plan.TBs {
		costs := preempt.EstimateAll(sm.TBs[i], est, len(sm.TBs), maxExec, relaxed)
		bestOverhead := math.Inf(1)
		for _, c := range costs {
			if c.Feasible() && c.MeetsLatency(us15) && c.OverheadInsts < bestOverhead {
				bestOverhead = c.OverheadInsts
			}
		}
		if math.IsInf(bestOverhead, 1) {
			continue // fallback case, checked elsewhere
		}
		if math.Abs(tb.Cost.OverheadInsts-bestOverhead) > 1e-9 {
			t.Errorf("block %d: chose overhead %v, cheapest feasible is %v (technique %v)",
				tb.Index, tb.Cost.OverheadInsts, bestOverhead, tb.Technique)
		}
	}
}

func TestSelectPrefersLowOverheadSMs(t *testing.T) {
	// SM 0 has barely-started blocks (cheap flushes); SM 1 has deep
	// blocks. Requesting one SM must take SM 0.
	in := Input{
		SMs: []gpu.SMSnapshot{smWith(0, 100, 200), smWith(1, 8000, 9000)},
		Est: estimate(true),
	}
	sel := Select(Request{ConstraintCycles: us15, NumPreempts: 1, Opts: relaxed}, in)
	if len(sel.Plans) != 1 {
		t.Fatalf("got %d plans", len(sel.Plans))
	}
	if sel.Plans[0].SM != 0 {
		t.Errorf("selected SM %d, want 0", sel.Plans[0].SM)
	}
}

func TestSelectHonoursNumPreempts(t *testing.T) {
	in := Input{Est: estimate(true)}
	for i := 0; i < 8; i++ {
		in.SMs = append(in.SMs, smWith(i, 100, 200))
	}
	for _, n := range []int{0, 1, 4, 8, 20} {
		sel := Select(Request{ConstraintCycles: us15, NumPreempts: n, Opts: relaxed}, in)
		want := n
		if want > 8 {
			want = 8
		}
		if len(sel.Plans) != want {
			t.Errorf("NumPreempts=%d: got %d plans, want %d", n, len(sel.Plans), want)
		}
	}
}

func TestSelectNoDuplicateSMs(t *testing.T) {
	in := Input{Est: estimate(true)}
	for i := 0; i < 6; i++ {
		in.SMs = append(in.SMs, smWith(i, int64(i*1000)))
	}
	sel := Select(Request{ConstraintCycles: us15, NumPreempts: 6, Opts: relaxed}, in)
	seen := map[gpu.SMID]bool{}
	for _, p := range sel.Plans {
		if seen[p.SM] {
			t.Fatalf("SM %d selected twice", p.SM)
		}
		seen[p.SM] = true
	}
}

func TestSelectForcedBestEffort(t *testing.T) {
	// Non-idempotent, all blocks breached, constraint below switch
	// latency: nothing meets it, so the demanded SMs are taken
	// best-effort (lowest estimated latency) and flagged.
	est := estimate(false)
	in := Input{Est: est}
	for i := 0; i < 4; i++ {
		in.SMs = append(in.SMs, gpu.SMSnapshot{SM: gpu.SMID(i), TBs: []gpu.TBSnapshot{
			{Index: i, Executed: 5000, RunCycles: 20000, Breached: true},
		}})
	}
	sel := Select(Request{ConstraintCycles: 10, NumPreempts: 2, Opts: relaxed}, in)
	if len(sel.Plans) != 2 || sel.Forced != 2 {
		t.Errorf("got %d plans, %d forced; want 2/2", len(sel.Plans), sel.Forced)
	}
}

func TestSelectDeterministic(t *testing.T) {
	in := Input{Est: estimate(true)}
	for i := 0; i < 10; i++ {
		in.SMs = append(in.SMs, smWith(i, int64(i*911%7000), int64(i*577%9000)))
	}
	req := Request{ConstraintCycles: us15, NumPreempts: 5, Opts: relaxed}
	a := Select(req, in)
	b := Select(req, in)
	if len(a.Plans) != len(b.Plans) {
		t.Fatal("nondeterministic plan count")
	}
	for i := range a.Plans {
		if a.Plans[i].SM != b.Plans[i].SM || a.Plans[i].String() != b.Plans[i].String() {
			t.Fatalf("nondeterministic selection at %d: %v vs %v", i, a.Plans[i], b.Plans[i])
		}
	}
}

func TestSelectPerSMUniformSingleTechnique(t *testing.T) {
	in := Input{
		SMs: []gpu.SMSnapshot{smWith(0, 100, 5000, 9900)},
		Est: estimate(true),
	}
	sel := SelectPerSMUniform(Request{ConstraintCycles: us15, NumPreempts: 1, Opts: relaxed}, in)
	if len(sel.Plans) != 1 {
		t.Fatal("no plan")
	}
	mix := sel.Plans[0].Mix()
	used := 0
	for _, n := range mix {
		if n > 0 {
			used++
		}
	}
	if used != 1 {
		t.Errorf("per-SM-uniform plan mixes techniques: %v", mix)
	}
}

func TestPerSMUniformNeverBeatsFullChimera(t *testing.T) {
	// Restricting the plan space cannot reduce estimated overhead.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := Input{Est: estimate(r.Intn(2) == 0)}
		nSMs := r.Intn(6) + 1
		for i := 0; i < nSMs; i++ {
			sm := gpu.SMSnapshot{SM: gpu.SMID(i)}
			for j := 0; j < r.Intn(6)+1; j++ {
				e := int64(r.Intn(10000))
				sm.TBs = append(sm.TBs, gpu.TBSnapshot{
					Index: i*100 + j, Executed: e,
					RunCycles: units.Cycles(float64(e) * (3 + 2*r.Float64())),
					Breached:  r.Intn(4) == 0,
				})
			}
			in.SMs = append(in.SMs, sm)
		}
		req := Request{ConstraintCycles: us15, NumPreempts: nSMs, Opts: relaxed}
		full := Select(req, in)
		uniform := SelectPerSMUniform(req, in)
		var fullOv, uniOv float64
		for _, p := range full.Plans {
			fullOv += p.OverheadInsts
		}
		for _, p := range uniform.Plans {
			uniOv += p.OverheadInsts
		}
		// Compare only when both selected everything feasibly.
		if full.Forced > 0 || uniform.Forced > 0 ||
			fullOv >= preempt.Infeasible || uniOv >= preempt.Infeasible {
			return true
		}
		return fullOv <= uniOv+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: every selected plan covers exactly the blocks of its SM
// snapshot, and whenever a plan claims to meet the constraint its
// per-block drain latencies individually meet it too.
func TestSelectPlanIntegrity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := Input{Est: estimate(r.Intn(2) == 0)}
		blocks := map[gpu.SMID]map[int]bool{}
		nSMs := r.Intn(8) + 1
		for i := 0; i < nSMs; i++ {
			sm := gpu.SMSnapshot{SM: gpu.SMID(i)}
			blocks[sm.SM] = map[int]bool{}
			for j := 0; j < r.Intn(5); j++ {
				e := int64(r.Intn(11000))
				sm.TBs = append(sm.TBs, gpu.TBSnapshot{
					Index: i*100 + j, Executed: e, RunCycles: units.Cycles(e * 4),
					Breached: r.Intn(3) == 0,
				})
				blocks[sm.SM][i*100+j] = true
			}
			in.SMs = append(in.SMs, sm)
		}
		sel := Select(Request{ConstraintCycles: us15, NumPreempts: r.Intn(nSMs + 2), Opts: relaxed}, in)
		for _, p := range sel.Plans {
			want := blocks[p.SM]
			if len(p.TBs) != len(want) {
				return false
			}
			for _, tb := range p.TBs {
				if !want[tb.Index] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// refCandidate and referencePlanSM are the plain statement of PlanSM,
// with a map of chosen blocks and sort.SliceStable: the oracle for
// PlanSM's allocation-free version.
type refCandidate struct {
	tb    gpu.TBSnapshot
	cost  preempt.Cost
	order int
}

func referencePlanSM(sm gpu.SMSnapshot, est gpu.KernelEstimate, constraintCycles float64, opts preempt.Options) preempt.SMPlan {
	maxExec := preempt.MaxExecuted(sm)
	candidates := make([]refCandidate, 0, len(sm.TBs)*preempt.NumTechniques)
	for i, tb := range sm.TBs {
		costs := preempt.EstimateAll(tb, est, len(sm.TBs), maxExec, opts)
		for _, c := range costs {
			candidates = append(candidates, refCandidate{tb: tb, cost: c, order: i})
		}
	}
	// Line 7: sort by throughput overhead (deterministic tie-break on
	// block order then technique order).
	sort.SliceStable(candidates, func(i, j int) bool {
		a, b := candidates[i], candidates[j]
		if a.cost.OverheadInsts != b.cost.OverheadInsts {
			return a.cost.OverheadInsts < b.cost.OverheadInsts
		}
		if a.order != b.order {
			return a.order < b.order
		}
		return a.cost.Technique < b.cost.Technique
	})

	chosen := make(map[int]preempt.TBPlan, len(sm.TBs))
	// Lines 8–13: take the cheapest-overhead technique per block that
	// meets the latency constraint.
	for _, cand := range candidates {
		if _, done := chosen[cand.tb.Index]; done {
			continue
		}
		if cand.cost.Feasible() && cand.cost.MeetsLatency(constraintCycles) {
			chosen[cand.tb.Index] = preempt.TBPlan{Index: cand.tb.Index, Technique: cand.cost.Technique, Cost: cand.cost}
		}
	}
	// Lines 14–16: blocks that meet the constraint with no technique are
	// context-switched (the technique with bounded, known latency).
	plan := preempt.SMPlan{SM: sm.SM}
	for _, tb := range sm.TBs {
		p, ok := chosen[tb.Index]
		if !ok {
			cost := preempt.EstimateSwitch(tb, est, len(sm.TBs), opts)
			p = preempt.TBPlan{Index: tb.Index, Technique: preempt.Switch, Cost: cost}
		}
		plan.TBs = append(plan.TBs, p)
	}
	plan.Aggregate()
	return plan
}

// TestPlanSMMatchesReference requires PlanSM to return exactly the
// reference's plan on random snapshots of 0 to 12 resident blocks, past
// the 8 blocks its stack scratch holds and the 20 candidates
// sort.SliceStable sorts by insertion alone. Block indices are distinct,
// as they are on a real SM.
func TestPlanSMMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		est := estimate(r.Intn(2) == 0)
		if r.Intn(4) == 0 {
			est.HasInsts, est.HasIPC = false, false // cold statistics
		}
		sm := gpu.SMSnapshot{SM: gpu.SMID(r.Intn(30))}
		for j, n := 0, r.Intn(13); j < n; j++ {
			e := int64(r.Intn(4) * r.Intn(4000))
			sm.TBs = append(sm.TBs, gpu.TBSnapshot{
				Index: 3*j + r.Intn(3), Executed: e,
				RunCycles: units.Cycles(float64(e) * (3 + 2*r.Float64())),
				Breached:  r.Intn(3) == 0,
			})
		}
		constraint := float64(r.Intn(40)) * units.CyclesPerMicrosecond
		opts := preempt.Options{Relaxed: r.Intn(2) == 0, CycleBased: r.Intn(4) == 0}
		got := PlanSM(sm, est, constraint, opts)
		want := referencePlanSM(sm, est, constraint, opts)
		if !reflect.DeepEqual(got, want) {
			t.Logf("seed %d: PlanSM %v, reference %v", seed, got.String(), want.String())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
