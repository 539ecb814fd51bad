// Package eventq implements the deterministic discrete-event queue that
// drives the GPU simulation. Events are ordered by cycle; events at the
// same cycle are delivered in insertion order (FIFO) so that simulation
// outcomes do not depend on queue internals.
//
// The queue is one flat binary min-heap with an entry per scheduled
// event: a (cycle, sequence, slot) value triple. The sequence is a
// per-queue schedule counter, so ordering by (cycle, sequence) keeps
// FIFO within a cycle exact, and since no two entries share a key the
// dispatch order depends on nothing but the schedule order. The heap
// holds no pointers: comparisons never dereference, swaps never take a
// write barrier.
//
// Events live in a per-queue slot slab. Schedule returns a Handle (slot
// index plus generation); a slot is freed, and its generation bumped,
// when its entry leaves the heap — its event fires, its cancelled entry
// is popped or compacted away, or Clear drops it — and the next
// Schedule reuses it. A stale Handle therefore names a generation that
// no longer exists and Cancel ignores it. Cancel only marks its event,
// so the engine's cancel-heavy runs (the contention model re-arms every
// running block at each transfer edge) leave cancelled entries behind;
// when they outnumber the live ones, Cancel drops them all and
// re-heapifies, which keeps the heap sized to the live events without
// changing the dispatch order. Slots recycle through a free list, so
// once the slab and the heap have grown to a run's peak occupancy
// nothing on the schedule/dispatch spine allocates. The slot index
// never enters the dispatch order. All pooling is per-queue — and
// therefore per-simulation — which keeps runs bit-identical and
// memoizable: no state crosses from one job to the next.
package eventq

import (
	"cmp"
	"slices"

	"chimera/internal/units"
)

// Handle names one scheduled event for Cancel. The zero Handle names
// no event, and a Handle whose event has fired, been dropped after
// cancellation or been cleared is stale: its slot's generation has moved
// on, so cancelling it is a no-op even after the slot is reused.
type Handle struct {
	slot int32
	gen  uint32
}

// slot is one event's storage. gen counts the slot's reuses; it starts
// at 1 so the zero Handle never matches a live event.
type slot struct {
	fire      func(now units.Cycles)
	gen       uint32
	cancelled bool
}

// heapEntry is one scheduled event in the min-heap: its cycle, its
// schedule sequence (the within-cycle FIFO tie-break) and its slot.
// Pure values — heap operations touch no pointers.
type heapEntry struct {
	at   units.Cycles
	seq  uint64
	slot int32
}

// Queue is a time-ordered event queue. The zero value is ready to use.
type Queue struct {
	// heap is a min-heap with one entry per queued event, cancelled
	// ones included until popped or compacted away, ordered by cycle
	// then schedule sequence.
	heap []heapEntry
	// seq numbers schedules for the FIFO tie-break.
	seq uint64

	// slots is the event slab heap entries index into; freeSlots
	// recycles the slots of fired, dropped and cleared events.
	slots     []slot
	freeSlots []int32

	// live counts pending (scheduled, not yet fired, not cancelled)
	// events so Len is O(1) — it is called on cancellation drain paths.
	live int
	now  units.Cycles
}

// Now returns the current simulation time: the fire time of the most
// recently dispatched event.
func (q *Queue) Now() units.Cycles { return q.now }

// Len returns the number of pending (non-cancelled) events. It is O(1):
// the queue keeps a live counter instead of scanning for stale entries.
func (q *Queue) Len() int { return q.live }

// allocSlot takes a free slot (or grows the slab) and arms it with fire.
//
//chimera:hot
func (q *Queue) allocSlot(fire func(now units.Cycles)) int32 {
	var s int32
	if n := len(q.freeSlots); n > 0 {
		s = q.freeSlots[n-1]
		q.freeSlots = q.freeSlots[:n-1]
	} else {
		q.slots = append(q.slots, slot{gen: 1})
		s = int32(len(q.slots) - 1)
	}
	q.slots[s].fire = fire
	return s
}

// freeSlot retires a slot whose entry left the heap: bumping the
// generation makes every Handle to it stale.
//
//chimera:hot
func (q *Queue) freeSlot(s int32) {
	sl := &q.slots[s]
	sl.fire = nil
	sl.cancelled = false
	if sl.gen++; sl.gen == 0 {
		sl.gen = 1 // wrapped: keep the zero Handle matching nothing
	}
	q.freeSlots = append(q.freeSlots, s)
}

// Schedule enqueues fire to run at cycle at and returns its Handle.
// Scheduling in the past (at < Now) is a programming error and panics: a
// discrete-event simulation that silently reorders time produces
// corrupt results.
//
//chimera:hot
func (q *Queue) Schedule(at units.Cycles, fire func(now units.Cycles)) Handle {
	if at < q.now {
		panic("eventq: scheduling into the past")
	}
	s := q.allocSlot(fire)
	q.seq++
	q.heap = append(q.heap, heapEntry{at: at, seq: q.seq, slot: s})
	q.up(len(q.heap) - 1)
	q.live++
	return Handle{slot: s, gen: q.slots[s].gen}
}

// Cancel removes an event from the queue if it has not fired. The event
// is marked cancelled; its entry stays in the heap, and its slot held,
// until the entry reaches the top or until a Cancel leaves more
// cancelled entries than live ones and compacts the heap (amortized
// O(1) per Cancel). The zero Handle, a stale Handle (the event already
// fired or was cleared) and a repeated Cancel are all no-ops.
//
//chimera:hot
func (q *Queue) Cancel(h Handle) {
	if int(h.slot) >= len(q.slots) {
		return
	}
	sl := &q.slots[h.slot]
	if sl.gen != h.gen || sl.cancelled {
		return
	}
	sl.cancelled = true
	q.live--
	if len(q.heap) > 2*q.live {
		q.compact()
	}
}

// compact drops every cancelled entry, freeing its slot, and rebuilds
// the heap from the survivors. Heap keys are unique, so the rebuilt
// heap pops in exactly the order the old one would have.
//
//chimera:hot
func (q *Queue) compact() {
	n := 0
	for _, e := range q.heap {
		if q.slots[e.slot].cancelled {
			q.freeSlot(e.slot)
			continue
		}
		q.heap[n] = e
		n++
	}
	q.heap = q.heap[:n]
	for i := n/2 - 1; i >= 0; i-- {
		q.down(i)
	}
}

// peek pops the cancelled entries off the top of the heap, freeing their
// slots, and reports whether a pending event remains: it is then
// q.heap[0].
//
//chimera:hot
func (q *Queue) peek() bool {
	for len(q.heap) > 0 {
		s := q.heap[0].slot
		if !q.slots[s].cancelled {
			return true
		}
		q.pop()
		q.freeSlot(s)
	}
	return false
}

// dispatch fires the pending event peek just found: its entry pops, its
// slot is freed (its Handle going stale) before the callback runs, and
// the clock moves to its cycle.
//
//chimera:hot
func (q *Queue) dispatch() {
	e := q.heap[0]
	q.pop()
	fire := q.slots[e.slot].fire
	q.freeSlot(e.slot)
	q.live--
	q.now = e.at
	fire(e.at)
}

// Step dispatches the next pending event and returns true, or returns
// false when the queue is empty.
//
//chimera:hot
func (q *Queue) Step() bool {
	if !q.peek() {
		return false
	}
	q.dispatch()
	return true
}

// RunUntil dispatches events until the queue is exhausted or the next
// event would fire after limit. It returns the number of events run. The
// simulation clock is left at the fire time of the last dispatched event
// (or advanced to limit if nothing remained before it).
func (q *Queue) RunUntil(limit units.Cycles) int {
	n, _ := q.RunUntilDone(limit, nil)
	return n
}

// RunUntilDone is RunUntil with cooperative cancellation: before every
// event dispatch it polls done (a context's Done channel; nil disables
// the check) and stops as soon as it is closed. It returns the number of
// events dispatched and whether the run was cancelled. On cancellation
// the clock stays at the last dispatched event's time — it is NOT
// advanced to limit — and pending events remain queued; callers that
// abandon the simulation should follow up with Clear.
//
//chimera:hot
func (q *Queue) RunUntilDone(limit units.Cycles, done <-chan struct{}) (n int, cancelled bool) {
	for {
		if done != nil {
			select {
			case <-done:
				return n, true
			default:
			}
		}
		if !q.peek() || q.heap[0].at > limit {
			break
		}
		q.dispatch()
		n++
	}
	if q.now < limit {
		q.now = limit
	}
	return n, false
}

// Pending is one pending event as AppendPending reports it: the cycle
// it fires at and the Handle Schedule returned for it.
type Pending struct {
	At     units.Cycles
	Handle Handle
}

// AppendPending appends every pending (scheduled, not yet fired, not
// cancelled) event to dst in dispatch order, by cycle and then schedule
// order, and returns the extended slice. It only reads the queue: any
// number of goroutines may call it at once on a queue that none of them
// runs. A caller that re-schedules the events in this order into
// another queue reproduces their dispatch order there, since events
// scheduled later still sort after them within a cycle.
func (q *Queue) AppendPending(dst []Pending) []Pending {
	live := make([]heapEntry, 0, q.live)
	for _, e := range q.heap {
		if !q.slots[e.slot].cancelled {
			live = append(live, e)
		}
	}
	slices.SortFunc(live, func(a, b heapEntry) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	for _, e := range live {
		dst = append(dst, Pending{At: e.at, Handle: Handle{slot: e.slot, gen: q.slots[e.slot].gen}})
	}
	return dst
}

// Clear cancels and discards every pending event, leaving the queue
// empty at the current time. It is the cleanup step of an abandoned
// (cancelled) simulation: no callback fires, no event survives, and
// every outstanding Handle goes stale.
func (q *Queue) Clear() {
	for _, e := range q.heap {
		q.freeSlot(e.slot)
	}
	q.heap = q.heap[:0]
	q.live = 0
}

// Run dispatches events until the queue is empty and returns the number
// of events run.
func (q *Queue) Run() int {
	n := 0
	for q.Step() {
		n++
	}
	return n
}

// less orders heap entries by cycle, then by schedule sequence, which
// is exactly FIFO within a cycle.
//
//chimera:hot
func (q *Queue) less(a, b heapEntry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// pop removes the minimum entry.
//
//chimera:hot
func (q *Queue) pop() {
	n := len(q.heap) - 1
	q.heap[0] = q.heap[n]
	q.heap = q.heap[:n]
	if n > 0 {
		q.down(0)
	}
}

//chimera:hot
func (q *Queue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(q.heap[i], q.heap[parent]) {
			break
		}
		q.heap[i], q.heap[parent] = q.heap[parent], q.heap[i]
		i = parent
	}
}

//chimera:hot
func (q *Queue) down(i int) {
	n := len(q.heap)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		smallest := left
		if right := left + 1; right < n && q.less(q.heap[right], q.heap[left]) {
			smallest = right
		}
		if !q.less(q.heap[smallest], q.heap[i]) {
			break
		}
		q.heap[i], q.heap[smallest] = q.heap[smallest], q.heap[i]
		i = smallest
	}
}
