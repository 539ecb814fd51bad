package sched

import (
	"fmt"
	"testing"
)

// admModel is the reference model FuzzAdmissionOrder checks the heap-
// backed AdmissionQueue against: a flat slice ranked by linear scan,
// written directly from the ordering contract (priority desc, EDF with
// deadline-free entries last, arrival FIFO) with none of the queue's
// heap or lazy-deletion machinery.
type admModel struct {
	items   []Item
	nextSeq int64
}

// before is the reference ordering relation.
func (m *admModel) before(a, b Item) bool {
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	if a.Deadline != b.Deadline {
		if a.Deadline == 0 {
			return false
		}
		if b.Deadline == 0 {
			return true
		}
		return a.Deadline < b.Deadline
	}
	return a.Seq < b.Seq
}

func (m *admModel) push(it Item) bool {
	for _, have := range m.items {
		if have.ID == it.ID {
			return false
		}
	}
	it.Seq = m.nextSeq
	m.nextSeq++
	m.items = append(m.items, it)
	return true
}

func (m *admModel) pop() (Item, bool) {
	if len(m.items) == 0 {
		return Item{}, false
	}
	best := 0
	for i := 1; i < len(m.items); i++ {
		if m.before(m.items[i], m.items[best]) {
			best = i
		}
	}
	it := m.items[best]
	m.items = append(m.items[:best], m.items[best+1:]...)
	return it, true
}

func (m *admModel) cancel(id string) bool {
	for i, it := range m.items {
		if it.ID == id {
			m.items = append(m.items[:i], m.items[i+1:]...)
			return true
		}
	}
	return false
}

// runAdmissionOps interprets one fuzz input as an operation sequence
// over a fresh queue, checking every step against the reference model,
// and returns the outcome log (what happened to every pushed ID, in
// event order) for the determinism check.
func runAdmissionOps(t *testing.T, data []byte) []string {
	t.Helper()
	var q AdmissionQueue
	var m admModel
	var log []string
	// outcome tracks each pushed ID's fate; every pushed job must end
	// popped or cancelled — exactly once — or still queued.
	outcome := make(map[string]string)
	pushed := 0
	note := func(id, what string) {
		if prev, dup := outcome[id]; dup {
			t.Fatalf("job %s %s after already being %s", id, what, prev)
		}
		outcome[id] = what
		log = append(log, what+":"+id)
	}

	for i := 0; i+2 < len(data); i += 3 {
		op, a, b := data[i], data[i+1], data[i+2]
		switch op % 7 {
		case 0, 1, 2, 3: // push (weighted: queues should mostly fill)
			id := fmt.Sprintf("j%d", pushed)
			pushed++
			it := Item{ID: id, Priority: int(a % 3), Deadline: int64(b % 16)}
			_, gotOK := q.Push(it)
			wantOK := m.push(it)
			if gotOK != wantOK {
				t.Fatalf("push %s: queue %v, model %v", id, gotOK, wantOK)
			}
			log = append(log, "push:"+id)
		case 4: // pop
			got, gotOK := q.Pop()
			want, wantOK := m.pop()
			if gotOK != wantOK || (gotOK && got != want) {
				t.Fatalf("pop: queue (%+v,%v), model (%+v,%v)", got, gotOK, want, wantOK)
			}
			if gotOK {
				note(got.ID, "pop")
			}
		case 5: // cancel (an ID that may or may not be live)
			id := fmt.Sprintf("j%d", int(a)%(pushed+1))
			gotOK := q.Cancel(id)
			wantOK := m.cancel(id)
			if gotOK != wantOK {
				t.Fatalf("cancel %s: queue %v, model %v", id, gotOK, wantOK)
			}
			if gotOK {
				note(id, "cancel")
			}
		case 6: // shed decision: a pure function of its inputs
			budget, queued, workers, est := float64(a), q.Len(), int(b%4), float64(b)
			first := Hopeless(budget, queued, workers, est)
			for k := 0; k < 3; k++ {
				if Hopeless(budget, queued, workers, est) != first {
					t.Fatalf("Hopeless(%v,%d,%d,%v) nondeterministic", budget, queued, workers, est)
				}
			}
			log = append(log, fmt.Sprintf("shed:%v", first))
		}
		if q.Len() != len(m.items) {
			t.Fatalf("Len diverged: queue %d, model %d", q.Len(), len(m.items))
		}
	}

	// Drain: every job still queued must come out, in model order, and
	// every pushed job must be accounted for exactly once.
	for {
		got, gotOK := q.Pop()
		want, wantOK := m.pop()
		if gotOK != wantOK || (gotOK && got != want) {
			t.Fatalf("drain: queue (%+v,%v), model (%+v,%v)", got, gotOK, want, wantOK)
		}
		if !gotOK {
			break
		}
		note(got.ID, "drain")
	}
	if len(outcome) != pushed {
		t.Fatalf("lost jobs: pushed %d, accounted %d", pushed, len(outcome))
	}
	return log
}

// FuzzAdmissionOrder fuzzes submit/cancel/pop/shed interleavings over
// the admission queue against the reference model: identical pop
// results at every step, no lost or duplicated jobs, and a bit-
// identical outcome log on a second run of the same input (determinism
// per seed — the property chimerad's dedup and the fleet's routing rely
// on).
func FuzzAdmissionOrder(f *testing.F) {
	f.Add([]byte{0, 1, 5, 0, 2, 9, 4, 0, 0, 5, 0, 0, 4, 8, 0})
	f.Add([]byte{0, 2, 0, 1, 2, 0, 2, 1, 3, 4, 0, 0, 4, 0, 0, 4, 0, 0})
	f.Add([]byte{6, 100, 3, 0, 0, 15, 4, 19, 0, 6, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		first := runAdmissionOps(t, data)
		second := runAdmissionOps(t, data)
		if fmt.Sprint(first) != fmt.Sprint(second) {
			t.Fatalf("same input, different outcome logs:\n%v\n%v", first, second)
		}
	})
}
