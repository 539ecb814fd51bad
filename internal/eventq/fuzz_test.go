package eventq

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"chimera/internal/units"
)

// modelEvent is the reference model's view of one scheduled event: a
// (time, insertion-sequence) pair with a cancellation flag. The model
// dispatches by scanning for the minimum (at, seq) — obviously correct,
// no heap involved.
type modelEvent struct {
	id        int
	at        units.Cycles
	cancelled bool
	fired     bool
}

// model is the executable specification the fuzzed Queue is compared
// against.
type model struct {
	events []*modelEvent
	now    units.Cycles
}

func (m *model) next() *modelEvent {
	var best *modelEvent
	for _, e := range m.events {
		if e.cancelled || e.fired {
			continue
		}
		// Insertion order (slice order) breaks ties, which is exactly
		// the FIFO-within-cycle contract.
		if best == nil || e.at < best.at {
			best = e
		}
	}
	return best
}

func (m *model) step() (int, bool) {
	e := m.next()
	if e == nil {
		return 0, false
	}
	e.fired = true
	m.now = e.at
	return e.id, true
}

func (m *model) pending() int {
	n := 0
	for _, e := range m.events {
		if !e.cancelled && !e.fired {
			n++
		}
	}
	return n
}

// pendingOrder returns the pending events in dispatch order: by cycle,
// insertion order within a cycle.
func (m *model) pendingOrder() []*modelEvent {
	var out []*modelEvent
	for _, e := range m.events {
		if !e.cancelled && !e.fired {
			out = append(out, e)
		}
	}
	slices.SortStableFunc(out, func(a, b *modelEvent) int { return cmp.Compare(a.at, b.at) })
	return out
}

// FuzzEventQ interprets the fuzz input as a little opcode program over a
// Queue — schedule, cancel, step, run-until, clear — and checks every
// observable (fire order, clock, pending count, the pending list in
// dispatch order) against the reference model after each operation.
func FuzzEventQ(f *testing.F) {
	f.Add([]byte{0, 5, 0, 0, 0, 3, 2, 0, 3, 3})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 4, 10, 5, 6})
	f.Add([]byte{1, 7, 1, 7, 2, 1, 4, 200})
	f.Add([]byte{0, 0, 3, 0, 1, 2, 0}) // fire, reuse the slot, cancel the stale handle
	f.Fuzz(func(t *testing.T, program []byte) {
		var q Queue
		var m model
		var fired []int // ids in Queue dispatch order
		nextID := 0

		// arg pulls the next program byte (0 when the program ran out).
		i := 0
		arg := func() byte {
			if i >= len(program) {
				return 0
			}
			b := program[i]
			i++
			return b
		}
		// handles keeps every Handle ever issued, so the cancel op also
		// cancels fired, skipped and cleared events through stale
		// handles whose slots may since have been reused.
		handles := make(map[int]Handle)

		schedule := func(delay units.Cycles) {
			id := nextID
			nextID++
			at := q.Now() + delay
			handles[id] = q.Schedule(at, func(now units.Cycles) {
				if now != at {
					t.Fatalf("event %d fired at %v, scheduled for %v", id, now, at)
				}
				fired = append(fired, id)
			})
			m.events = append(m.events, &modelEvent{id: id, at: at})
		}

		for i < len(program) {
			switch op := arg(); op % 6 {
			case 0, 1: // schedule at now + small delay (two ops: bias toward collisions)
				schedule(units.Cycles(arg() % 8))
			case 2: // cancel one prior event (pending, cancelled, fired or cleared)
				if nextID > 0 {
					id := int(arg()) % nextID
					q.Cancel(handles[id])
					for _, e := range m.events {
						if e.id == id && !e.fired {
							e.cancelled = true
						}
					}
				}
			case 3: // step once
				id, ok := m.step()
				if got := q.Step(); got != ok {
					t.Fatalf("Step() = %v, model says %v", got, ok)
				} else if ok {
					if len(fired) == 0 || fired[len(fired)-1] != id {
						t.Fatalf("dispatched %v, model expected event %d", fired, id)
					}
					if q.Now() != m.now {
						t.Fatalf("Now() = %v after step, model at %v", q.Now(), m.now)
					}
				}
			case 4: // run until a horizon
				limit := q.Now() + units.Cycles(arg()%16)
				var ids []int
				for {
					e := m.next()
					if e == nil || e.at > limit {
						break
					}
					id, _ := m.step()
					ids = append(ids, id)
				}
				if m.now < limit {
					m.now = limit
				}
				if got := q.RunUntil(limit); got != len(ids) {
					t.Fatalf("RunUntil(%v) = %d events, model ran %d", limit, got, len(ids))
				}
				for j, id := range ids {
					if fired[len(fired)-len(ids)+j] != id {
						t.Fatalf("RunUntil dispatch order %v, model expected %v",
							fired[len(fired)-len(ids):], ids)
					}
				}
				if q.Now() != m.now {
					t.Fatalf("Now() = %v after RunUntil, model at %v", q.Now(), m.now)
				}
			case 5: // clear everything
				q.Clear()
				for _, e := range m.events {
					if !e.fired {
						e.cancelled = true
					}
				}
			}
			if q.Len() != m.pending() {
				t.Fatalf("Len() = %d, model has %d pending", q.Len(), m.pending())
			}
			// AppendPending lists exactly the model's pending events, in
			// the order the model would dispatch them.
			want := m.pendingOrder()
			got := q.AppendPending(nil)
			if len(got) != len(want) {
				t.Fatalf("AppendPending listed %d events, model has %d pending", len(got), len(want))
			}
			for j, e := range want {
				if got[j].At != e.at || got[j].Handle != handles[e.id] {
					t.Fatalf("AppendPending[%d] = %+v, model expected event %d at %v", j, got[j], e.id, e.at)
				}
			}
		}

		// Drain: the remaining dispatch order must match the model's.
		for {
			id, ok := m.step()
			if !ok {
				break
			}
			if !q.Step() {
				t.Fatalf("queue empty, model still had event %d", id)
			}
			if fired[len(fired)-1] != id {
				t.Fatalf("drain dispatched %d, model expected %d", fired[len(fired)-1], id)
			}
		}
		if q.Step() {
			t.Fatal("queue dispatched an event the model did not have")
		}
	})
}

// TestFIFOWithinTimestampProperty hammers the documented tie-break: many
// events land on few distinct cycles, a random subset is cancelled, and
// the dispatch order must still be (cycle, insertion order) with the
// cancelled ones absent.
func TestFIFOWithinTimestampProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		var q Queue
		const n = 200
		type rec struct {
			id int
			at units.Cycles
		}
		var want []rec
		var got []int
		handles := make([]Handle, n)
		for id := 0; id < n; id++ {
			id := id
			at := units.Cycles(rng.Intn(5)) // heavy collisions
			handles[id] = q.Schedule(at, func(units.Cycles) { got = append(got, id) })
			want = append(want, rec{id: id, at: at})
		}
		cancelled := make(map[int]bool)
		for _, id := range rng.Perm(n)[:n/4] {
			q.Cancel(handles[id])
			cancelled[id] = true
		}
		// Expected order: stable sort by cycle preserves insertion order
		// within a timestamp; Go's sort.SliceStable is the specification
		// here, but a counting pass keeps it independent of sort at all.
		var expect []rec
		for at := units.Cycles(0); at < 5; at++ {
			for _, r := range want {
				if r.at == at && !cancelled[r.id] {
					expect = append(expect, r)
				}
			}
		}
		if ran := q.Run(); ran != len(expect) {
			t.Fatalf("trial %d: ran %d events, want %d", trial, ran, len(expect))
		}
		for i, r := range expect {
			if got[i] != r.id {
				t.Fatalf("trial %d: position %d dispatched event %d, want %d (cycle %v)",
					trial, i, got[i], r.id, r.at)
			}
		}
	}
}
