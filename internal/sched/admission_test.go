package sched

import (
	"fmt"
	"testing"
)

// push is a test helper asserting the push was accepted.
func push(t *testing.T, q *AdmissionQueue, id string, pri int, deadline int64) {
	t.Helper()
	if _, ok := q.Push(Item{ID: id, Priority: pri, Deadline: deadline}); !ok {
		t.Fatalf("push %s rejected", id)
	}
}

// popIDs drains the queue and returns the IDs in pop order.
func popIDs(q *AdmissionQueue) []string {
	var out []string
	for {
		it, ok := q.Pop()
		if !ok {
			return out
		}
		out = append(out, it.ID)
	}
}

func TestAdmissionOrdering(t *testing.T) {
	var q AdmissionQueue
	// Arrival order deliberately scrambled relative to the expected pop
	// order: priority first, then EDF within a priority level with
	// deadline-free entries last, then arrival FIFO.
	push(t, &q, "lo-late", 0, 900)
	push(t, &q, "hi-none-a", 1, 0)
	push(t, &q, "lo-early", 0, 100)
	push(t, &q, "hi-late", 1, 500)
	push(t, &q, "hi-early", 1, 200)
	push(t, &q, "hi-none-b", 1, 0)
	push(t, &q, "lo-none", 0, 0)
	push(t, &q, "hi-early-b", 1, 200)

	want := []string{"hi-early", "hi-early-b", "hi-late", "hi-none-a", "hi-none-b", "lo-early", "lo-late", "lo-none"}
	got := popIDs(&q)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("pop order %v, want %v", got, want)
	}
	if q.Len() != 0 {
		t.Fatalf("drained queue has Len %d", q.Len())
	}
}

func TestAdmissionDuplicateAndCancel(t *testing.T) {
	var q AdmissionQueue
	push(t, &q, "a", 0, 0)
	if _, ok := q.Push(Item{ID: "a"}); ok {
		t.Fatal("duplicate live ID accepted")
	}
	if !q.Cancel("a") {
		t.Fatal("cancel of live entry failed")
	}
	if q.Cancel("a") {
		t.Fatal("second cancel of same entry succeeded")
	}
	if q.Cancel("never-queued") {
		t.Fatal("cancel of unknown ID succeeded")
	}
	// The ID is free again once the entry is gone.
	push(t, &q, "a", 0, 0)
	if got := popIDs(&q); len(got) != 1 || got[0] != "a" {
		t.Fatalf("pop after cancel/re-push = %v", got)
	}
	// Cancelled entries never surface even with their heap slot intact.
	push(t, &q, "x", 5, 0)
	push(t, &q, "y", 1, 0)
	q.Cancel("x")
	if got := popIDs(&q); len(got) != 1 || got[0] != "y" {
		t.Fatalf("pop around lazy-removed entry = %v", got)
	}
}

func TestHopeless(t *testing.T) {
	cases := []struct {
		name            string
		budget          float64
		queued, workers int
		estService      float64
		want            bool
	}{
		{"no deadline", 0, 100, 1, 50, false},
		{"no estimate yet", 100, 100, 1, 0, false},
		{"no workers", 100, 100, 0, 50, false},
		{"empty queue fits", 100, 0, 1, 50, false},
		{"empty queue too slow", 40, 0, 1, 50, true},
		{"deep queue", 100, 10, 1, 50, true},
		{"deep queue wide pool", 100, 10, 8, 50, false},
		{"boundary exactly meets", 100, 1, 1, 50, false},
	}
	for _, c := range cases {
		if got := Hopeless(c.budget, c.queued, c.workers, c.estService); got != c.want {
			t.Errorf("%s: Hopeless(%v,%d,%d,%v) = %v, want %v",
				c.name, c.budget, c.queued, c.workers, c.estService, got, c.want)
		}
	}
	// Purity: the same tuple always decides the same way.
	for i := 0; i < 100; i++ {
		if Hopeless(100, 10, 1, 50) != true {
			t.Fatal("Hopeless flip-flopped on a fixed tuple")
		}
	}
}

// BenchmarkAdmissionQueue measures steady-state push/pop churn at a
// queue depth of 1024 with mixed priorities and deadlines — the
// chimerad submit-path hot loop.
func BenchmarkAdmissionQueue(b *testing.B) {
	const depth = 1024
	var q AdmissionQueue
	ids := make([]string, depth)
	for i := range ids {
		ids[i] = fmt.Sprintf("warm%d", i)
		q.Push(Item{ID: ids[i], Priority: i % 3, Deadline: int64(1 + (i*37)%1000)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := fmt.Sprintf("j%d", i)
		if _, ok := q.Push(Item{ID: id, Priority: i % 3, Deadline: int64(1 + (i*37)%1000)}); !ok {
			b.Fatal("push rejected")
		}
		if _, ok := q.Pop(); !ok {
			b.Fatal("pop of non-empty queue failed")
		}
	}
}
