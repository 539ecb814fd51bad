package eventq

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"chimera/internal/units"
)

func TestTimeOrdering(t *testing.T) {
	var q Queue
	var got []int
	for i, at := range []units.Cycles{50, 10, 30, 20, 40} {
		i := i
		q.Schedule(at, func(units.Cycles) { got = append(got, i) })
	}
	q.Run()
	want := []int{1, 3, 2, 4, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v", got, want)
		}
	}
}

func TestFIFOWithinCycle(t *testing.T) {
	var q Queue
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		q.Schedule(100, func(units.Cycles) { got = append(got, i) })
	}
	q.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-cycle events out of insertion order: %v", got)
		}
	}
}

func TestNowAdvances(t *testing.T) {
	var q Queue
	var at units.Cycles
	q.Schedule(77, func(now units.Cycles) { at = now })
	q.Run()
	if at != 77 || q.Now() != 77 {
		t.Errorf("fire time %d, Now %d; want 77", at, q.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	var q Queue
	q.Schedule(100, func(units.Cycles) {})
	q.Run()
	defer func() {
		if recover() == nil {
			t.Error("scheduling into the past did not panic")
		}
	}()
	q.Schedule(50, func(units.Cycles) {})
}

func TestCancel(t *testing.T) {
	var q Queue
	fired := false
	e := q.Schedule(10, func(units.Cycles) { fired = true })
	q.Cancel(e)
	if q.Len() != 0 {
		t.Errorf("Len() = %d after cancelling the only event, want 0", q.Len())
	}
	if n := q.Run(); n != 0 || fired {
		t.Errorf("cancelled event fired (Run dispatched %d)", n)
	}
}

// TestCancelNil: the zero Handle names no event, on an empty queue and
// on one whose slot 0 holds a live event.
func TestCancelNil(t *testing.T) {
	var q Queue
	q.Cancel(Handle{}) // must not panic
	fired := false
	q.Schedule(1, func(units.Cycles) { fired = true })
	q.Cancel(Handle{})
	if q.Len() != 1 {
		t.Fatalf("Len() = %d after cancelling the zero Handle, want 1", q.Len())
	}
	if q.Run(); !fired {
		t.Error("cancelling the zero Handle cancelled a live event")
	}
}

// TestStaleHandleIsNoOp pins the generation check: one event fires, one
// is cancelled and drained past, new events reuse both slots, and
// cancelling the old handles must leave the new events pending: a
// holder that cancels after its event fired must not hit whichever
// event reused the slot.
func TestStaleHandleIsNoOp(t *testing.T) {
	var q Queue
	fired := q.Schedule(1, nop)
	cancelled := q.Schedule(1, nop)
	q.Cancel(cancelled)
	if n := q.Run(); n != 1 {
		t.Fatalf("Run dispatched %d events, want 1", n)
	}
	var got []int
	for i := 0; i < 2; i++ {
		i := i
		q.Schedule(q.Now()+1, func(units.Cycles) { got = append(got, i) })
	}
	if len(q.slots) != 2 {
		t.Fatalf("slab holds %d slots, want the 2 freed ones reused", len(q.slots))
	}
	q.Cancel(fired)
	q.Cancel(cancelled)
	if q.Len() != 2 {
		t.Fatalf("Len() = %d after cancelling stale handles, want 2", q.Len())
	}
	if n := q.Run(); n != 2 || len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("Run dispatched %d events %v, want both new events [0 1]", n, got)
	}
}

func TestLenExcludesCancelled(t *testing.T) {
	var q Queue
	a := q.Schedule(1, func(units.Cycles) {})
	q.Schedule(2, func(units.Cycles) {})
	q.Cancel(a)
	if n := q.Len(); n != 1 {
		t.Errorf("Len() = %d, want 1", n)
	}
}

func TestRunUntil(t *testing.T) {
	var q Queue
	var got []units.Cycles
	for _, at := range []units.Cycles{10, 20, 30, 40} {
		q.Schedule(at, func(now units.Cycles) { got = append(got, now) })
	}
	n := q.RunUntil(25)
	if n != 2 || len(got) != 2 {
		t.Fatalf("RunUntil(25) ran %d events (%v), want 2", n, got)
	}
	if q.Now() != 25 {
		t.Errorf("Now() = %d after RunUntil(25)", q.Now())
	}
	// Boundary: an event exactly at the limit fires.
	n = q.RunUntil(30)
	if n != 1 || q.Now() != 30 {
		t.Errorf("RunUntil(30) ran %d, now %d", n, q.Now())
	}
}

// TestHeapTracksLiveEvents pins the compaction bound under cancel-heavy
// churn: 1,000 events on distinct cycles are cancelled in random order,
// with a Step after every 10th cancel that must fire the earliest
// surviving event. A Cancel that leaves more cancelled entries than live
// ones compacts the heap, so after a Cancel it holds at most twice the
// live events, and the one Step since the last Cancel can leave it one
// entry over.
func TestHeapTracksLiveEvents(t *testing.T) {
	var q Queue
	const n = 1000
	handles := make([]Handle, n)
	var fired []int
	for i := range handles {
		i := i
		handles[i] = q.Schedule(units.Cycles(i), func(units.Cycles) { fired = append(fired, i) })
	}
	check := func(op string, k int) {
		t.Helper()
		if len(q.heap) > 2*q.Len()+1 {
			t.Fatalf("after %s %d: heap holds %d entries for %d live events", op, k, len(q.heap), q.Len())
		}
	}
	gone := make([]bool, n) // cancelled or fired
	for k, i := range rand.New(rand.NewSource(1)).Perm(n) {
		q.Cancel(handles[i])
		gone[i] = true
		check("cancel", k)
		if k%10 == 9 {
			next := -1
			for j, g := range gone {
				if !g {
					next = j
					break
				}
			}
			if q.Step() != (next >= 0) {
				t.Fatalf("step %d: Step() disagrees with %d pending events", k, q.Len())
			}
			if next >= 0 {
				if last := fired[len(fired)-1]; last != next {
					t.Fatalf("step %d fired event %d, want the earliest pending %d", k, last, next)
				}
				gone[next] = true
			}
			check("step", k)
		}
	}
	if q.Len() != 0 || len(q.heap) != 0 || len(q.freeSlots) != len(q.slots) {
		t.Fatalf("after cancelling everything: Len %d, heap %d, %d of %d slots free",
			q.Len(), len(q.heap), len(q.freeSlots), len(q.slots))
	}
}

func TestReentrantScheduling(t *testing.T) {
	// Events scheduled at the current cycle from within a handler must
	// still fire, after already-queued same-cycle events.
	var q Queue
	var got []string
	q.Schedule(10, func(now units.Cycles) {
		got = append(got, "a")
		q.Schedule(now, func(units.Cycles) { got = append(got, "c") })
	})
	q.Schedule(10, func(units.Cycles) { got = append(got, "b") })
	q.Run()
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Errorf("reentrant order %v, want [a b c]", got)
	}
}

func TestStepEmpty(t *testing.T) {
	var q Queue
	if q.Step() {
		t.Error("Step on empty queue returned true")
	}
}

// TestDispatchOrderProperty checks against a sorted reference on random
// schedules: events fire in non-decreasing time, ties in insertion order.
func TestDispatchOrderProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%100 + 1
		r := rand.New(rand.NewSource(seed))
		var q Queue
		times := make([]units.Cycles, n)
		var fired []int
		for i := 0; i < n; i++ {
			times[i] = units.Cycles(r.Intn(20))
			i := i
			q.Schedule(times[i], func(units.Cycles) { fired = append(fired, i) })
		}
		q.Run()
		if len(fired) != n {
			return false
		}
		want := make([]int, n)
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(a, b int) bool { return times[want[a]] < times[want[b]] })
		for i := range want {
			if fired[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestCancelProperty: random cancellations never fire and never disturb
// the order of survivors.
func TestCancelProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var q Queue
		const n = 60
		events := make([]Handle, n)
		cancelled := make([]bool, n)
		var fired []int
		for i := 0; i < n; i++ {
			i := i
			events[i] = q.Schedule(units.Cycles(r.Intn(30)), func(units.Cycles) { fired = append(fired, i) })
		}
		for i := 0; i < n; i++ {
			if r.Intn(2) == 0 {
				q.Cancel(events[i])
				cancelled[i] = true
			}
		}
		q.Run()
		seen := make(map[int]bool)
		for _, i := range fired {
			if cancelled[i] || seen[i] {
				return false
			}
			seen[i] = true
		}
		for i := 0; i < n; i++ {
			if !cancelled[i] && !seen[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRunUntilDoneCancels(t *testing.T) {
	var q Queue
	done := make(chan struct{})
	fired := 0
	for i := 0; i < 10; i++ {
		at := units.Cycles(i * 10)
		q.Schedule(at, func(now units.Cycles) {
			fired++
			if fired == 3 {
				close(done) // cancel mid-run
			}
		})
	}
	n, cancelled := q.RunUntilDone(1000, done)
	if !cancelled {
		t.Fatal("expected cancellation")
	}
	if n != 3 || fired != 3 {
		t.Fatalf("dispatched %d events (fired %d), want 3", n, fired)
	}
	if q.Now() != 20 {
		t.Fatalf("clock advanced to %v after cancel, want 20 (not the limit)", q.Now())
	}
	if q.Len() != 7 {
		t.Fatalf("pending after cancel = %d, want 7", q.Len())
	}
	q.Clear()
	if q.Len() != 0 {
		t.Fatalf("pending after Clear = %d, want 0", q.Len())
	}
	// A cleared queue is still usable at the current time.
	ran := false
	q.Schedule(q.Now()+5, func(units.Cycles) { ran = true })
	if n, cancelled := q.RunUntilDone(1000, nil); n != 1 || cancelled || !ran {
		t.Fatalf("post-Clear run: n=%d cancelled=%v ran=%v", n, cancelled, ran)
	}
}

func TestRunUntilDoneNilDoneMatchesRunUntil(t *testing.T) {
	var a, b Queue
	countA, countB := 0, 0
	for i := 0; i < 5; i++ {
		at := units.Cycles(i)
		a.Schedule(at, func(units.Cycles) { countA++ })
		b.Schedule(at, func(units.Cycles) { countB++ })
	}
	na := a.RunUntil(100)
	nb, cancelled := b.RunUntilDone(100, nil)
	if cancelled || na != nb || countA != countB || a.Now() != b.Now() {
		t.Fatalf("RunUntilDone(nil) diverges from RunUntil: %d/%d events, now %v/%v", nb, na, b.Now(), a.Now())
	}
}

func TestRunUntilDoneAlreadyCancelled(t *testing.T) {
	var q Queue
	done := make(chan struct{})
	close(done)
	q.Schedule(1, func(units.Cycles) { t.Fatal("event fired after pre-cancel") })
	n, cancelled := q.RunUntilDone(100, done)
	if n != 0 || !cancelled {
		t.Fatalf("n=%d cancelled=%v, want 0/true", n, cancelled)
	}
}
