package eventq

import (
	"testing"

	"chimera/internal/units"
)

// nop is the shared no-op payload so benches measure the queue, not the
// callbacks.
func nop(units.Cycles) {}

// BenchmarkEventQSameCycleBurst measures bursts of events landing on the
// same cycle (a preemption plan freezing several blocks, a rebalance
// arming a batch of completions), drained in FIFO order. Every event
// costs its own heap push and pop; the sequence tie-break keeps each
// push O(1), since a new entry never rises above an equal-cycle one.
// The engine itself rarely bursts (docs/performance.md). One iteration
// schedules and dispatches 64 events spread over 8 distinct cycles.
func BenchmarkEventQSameCycleBurst(b *testing.B) {
	var q Queue
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		base := q.Now()
		for c := units.Cycles(0); c < 8; c++ {
			for j := 0; j < 8; j++ {
				q.Schedule(base+c, nop)
			}
		}
		q.RunUntil(base + 8)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*64), "ns/event")
}

// BenchmarkEventQSpread schedules each event on its own cycle, the
// engine's common case: every push and pop sifts through the heap.
func BenchmarkEventQSpread(b *testing.B) {
	var q Queue
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		base := q.Now()
		for c := units.Cycles(0); c < 64; c++ {
			q.Schedule(base+c, nop)
		}
		q.RunUntil(base + 64)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*64), "ns/event")
}

// BenchmarkEventQCancel measures the cancel-heavy path: half the
// scheduled events are cancelled before dispatch (the engine cancels a
// block's completion event on every preemption).
func BenchmarkEventQCancel(b *testing.B) {
	var q Queue
	b.ReportAllocs()
	handles := make([]Handle, 64)
	for i := 0; i < b.N; i++ {
		base := q.Now()
		for j := range handles {
			handles[j] = q.Schedule(base+units.Cycles(j%8), nop)
		}
		for j := 0; j < len(handles); j += 2 {
			q.Cancel(handles[j])
		}
		q.RunUntil(base + 8)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*64), "ns/event")
}

// BenchmarkEventQLen pins the O(1) Len contract under load: the queue
// holds thousands of pending events (some stale) while Len is polled,
// the cancellation-drain access pattern.
func BenchmarkEventQLen(b *testing.B) {
	var q Queue
	handles := make([]Handle, 4096)
	for j := range handles {
		handles[j] = q.Schedule(units.Cycles(j%512), nop)
	}
	for j := 0; j < len(handles); j += 3 {
		q.Cancel(handles[j])
	}
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += q.Len()
	}
	if sink == 0 {
		b.Fatal("Len never saw the pending events")
	}
}

// TestLenIsLiveCounter is the regression test for the O(1) Len rewrite:
// the count must stay exact through fires, cancels, cancel-after-fire
// (a stale handle), double-cancel and Clear — none of which may scan
// the queue.
func TestLenIsLiveCounter(t *testing.T) {
	var q Queue
	a := q.Schedule(1, nop)
	bb := q.Schedule(1, nop)
	c := q.Schedule(2, nop)
	if q.Len() != 3 {
		t.Fatalf("Len = %d, want 3", q.Len())
	}
	q.Cancel(a)
	q.Cancel(a) // double-cancel must not double-decrement
	if q.Len() != 2 {
		t.Fatalf("Len after cancel = %d, want 2", q.Len())
	}
	if !q.Step() { // fires bb
		t.Fatal("Step found nothing")
	}
	if q.Len() != 1 {
		t.Fatalf("Len after step = %d, want 1", q.Len())
	}
	q.Cancel(bb) // cancel-after-fire: a stale handle, Len must not move
	if q.Len() != 1 {
		t.Fatalf("Len after cancel-after-fire = %d, want 1", q.Len())
	}
	q.Cancel(c)
	if q.Len() != 0 {
		t.Fatalf("Len after last cancel = %d, want 0", q.Len())
	}
	if n := q.Run(); n != 0 {
		t.Errorf("%d cancelled events fired", n)
	}
	// Refill and Clear.
	for i := 0; i < 10; i++ {
		q.Schedule(q.Now()+units.Cycles(i), nop)
	}
	if q.Len() != 10 {
		t.Fatalf("Len after refill = %d, want 10", q.Len())
	}
	q.Clear()
	if q.Len() != 0 {
		t.Fatalf("Len after Clear = %d, want 0", q.Len())
	}
}

// TestScheduleSteadyStateAllocs pins the allocation budget of the hot
// path: once the slot slab, its free list and the heap slice have grown
// to the run's peak occupancy, a schedule+dispatch cycle allocates
// nothing at all — fired slots and heap capacity are reused.
func TestScheduleSteadyStateAllocs(t *testing.T) {
	var q Queue
	// Warm the slabs past the measured loop's peak occupancy.
	for i := 0; i < 64; i++ {
		q.Schedule(q.Now()+units.Cycles(i%16), nop)
	}
	q.Run()
	avg := testing.AllocsPerRun(2000, func() {
		base := q.Now()
		for j := 0; j < 8; j++ {
			q.Schedule(base+units.Cycles(j%2), nop)
		}
		q.RunUntil(base + 2)
	})
	if avg != 0 {
		t.Fatalf("steady-state allocations = %.3f per 8-event run, want 0", avg)
	}
}
