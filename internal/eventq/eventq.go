// Package eventq implements the deterministic discrete-event queue that
// drives the GPU simulation. Events are ordered by cycle; events at the
// same cycle are delivered in insertion order (FIFO) so that simulation
// outcomes do not depend on queue internals.
//
// The queue is a bucketed calendar queue built for bursts of events
// landing on the same cycle (a preemption plan freezes several blocks
// at once, a rebalance schedules a batch of completions). Consecutive
// same-cycle schedules share a bucket (an append-only FIFO of slot
// indexes), so a burst of B events costs one heap operation instead of
// B. Such bursts are rare in the engine: a quick exhibit sweep
// (chimerasim -quick all) schedules 24.6 M events into 24.5 M buckets,
// 1.003 events per bucket (docs/performance.md). Scheduling a cycle other
// than the most recent one opens a fresh bucket even if that cycle
// already has one: buckets carry a creation sequence number and the heap
// orders by (cycle, sequence), which keeps FIFO within a cycle exact —
// every event in an earlier bucket was scheduled before every event in a
// later one — without any cycle-indexed map. Bucket shells live in an
// index-addressed slab, so the min-heap holds plain value triples with
// no pointers: comparisons never dereference, swaps never take a write
// barrier.
//
// Events live in a per-queue slot slab. Schedule returns a Handle (slot
// index plus generation); a slot is freed, and its generation bumped,
// when its event fires or when its cancelled entry is skipped or
// cleared, and the next Schedule reuses it. A stale Handle therefore
// names a generation that no longer exists and Cancel ignores it. Slots
// and exhausted bucket shells both recycle through free lists, so once
// the slabs have grown to a run's peak occupancy nothing on the
// schedule/dispatch spine allocates. The slot index never enters the
// dispatch order. All pooling is per-queue — and therefore
// per-simulation — which keeps runs bit-identical and memoizable: no
// state crosses from one job to the next.
package eventq

import "chimera/internal/units"

// Handle names one scheduled event for Cancel. The zero Handle names
// no event, and a Handle whose event has fired, been skipped after
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

// bucket holds a run of consecutively scheduled events of one cycle in
// insertion (FIFO) order, as slot indexes. head is the next dispatch
// position; entries before it have already been delivered or skipped as
// cancelled, and their slots freed.
type bucket struct {
	slots []int32
	head  int
}

// heapEntry is one occupied bucket in the min-heap: its cycle, its
// creation sequence (the within-cycle FIFO tie-break) and its slab
// index. Pure values — heap operations touch no pointers.
type heapEntry struct {
	at  units.Cycles
	seq uint64
	idx int32
}

// Queue is a time-ordered event queue. The zero value is ready to use.
type Queue struct {
	// heap is a min-heap over the occupied buckets, ordered by cycle
	// then creation sequence.
	heap []heapEntry
	// buckets is the slab the heap indexes into; freeIdx recycles
	// exhausted shells (and their slot-index slices).
	buckets []bucket
	freeIdx []int32
	// lastIdx/lastAt cache the most recently opened bucket (index+1; 0
	// means none): a same-cycle burst appends without a heap operation.
	lastIdx int32
	lastAt  units.Cycles
	// seq numbers buckets in creation order for the FIFO tie-break.
	seq uint64

	// slots is the event slab buckets index into; freeSlots recycles
	// the slots of fired, skipped and cleared events.
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

// freeSlot retires a slot whose event fired, was skipped as cancelled
// or was cleared: bumping the generation makes every Handle to it stale.
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

// openBucket recycles (or creates) an empty bucket shell and returns
// its slab index.
//
//chimera:hot
func (q *Queue) openBucket() int32 {
	if n := len(q.freeIdx); n > 0 {
		idx := q.freeIdx[n-1]
		q.freeIdx = q.freeIdx[:n-1]
		return idx
	}
	q.buckets = append(q.buckets, bucket{})
	return int32(len(q.buckets) - 1)
}

// releaseMin retires the exhausted minimum bucket: its heap entry pops
// and its shell goes back on the free list.
//
//chimera:hot
func (q *Queue) releaseMin() {
	idx := q.heap[0].idx
	n := len(q.heap) - 1
	q.heap[0] = q.heap[n]
	q.heap = q.heap[:n]
	if n > 0 {
		q.down(0)
	}
	b := &q.buckets[idx]
	b.slots = b.slots[:0]
	b.head = 0
	if q.lastIdx == idx+1 {
		q.lastIdx = 0
	}
	q.freeIdx = append(q.freeIdx, idx)
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
	if li := q.lastIdx; li != 0 && q.lastAt == at {
		b := &q.buckets[li-1]
		b.slots = append(b.slots, s)
	} else {
		idx := q.openBucket()
		b := &q.buckets[idx]
		b.slots = append(b.slots, s)
		q.seq++
		q.heap = append(q.heap, heapEntry{at: at, seq: q.seq, idx: idx})
		q.up(len(q.heap) - 1)
		q.lastIdx = idx + 1
		q.lastAt = at
	}
	q.live++
	return Handle{slot: s, gen: q.slots[s].gen}
}

// ScheduleAfter enqueues fire to run delay cycles after the current time.
//
//chimera:hot
func (q *Queue) ScheduleAfter(delay units.Cycles, fire func(now units.Cycles)) Handle {
	return q.Schedule(q.now+delay, fire)
}

// Cancel removes an event from the queue if it has not fired. Cancelling
// is O(1): the event is marked cancelled and its slot freed when its
// bucket drains past it. The zero Handle, a stale Handle (the event
// already fired or was cleared) and a repeated Cancel are all no-ops.
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
}

// peek returns the slot of the next pending event without dispatching
// it, or -1 when none is pending. Cancelled entries it passes are freed
// and exhausted buckets released; the returned event sits at the head
// of the minimum bucket, at cycle q.heap[0].at.
//
//chimera:hot
func (q *Queue) peek() int32 {
	for len(q.heap) > 0 {
		b := &q.buckets[q.heap[0].idx]
		for b.head < len(b.slots) {
			s := b.slots[b.head]
			if !q.slots[s].cancelled {
				return s
			}
			q.freeSlot(s)
			b.head++
		}
		q.releaseMin()
	}
	return -1
}

// dispatch fires the event peek just returned: it leaves the minimum
// bucket, its slot is freed (its Handle going stale) before the
// callback runs, and the clock moves to its cycle.
//
//chimera:hot
func (q *Queue) dispatch(s int32) {
	at := q.heap[0].at
	b := &q.buckets[q.heap[0].idx]
	b.head++
	if b.head == len(b.slots) {
		q.releaseMin()
	}
	fire := q.slots[s].fire
	q.freeSlot(s)
	q.live--
	q.now = at
	fire(at)
}

// Step dispatches the next pending event and returns true, or returns
// false when the queue is empty.
//
//chimera:hot
func (q *Queue) Step() bool {
	s := q.peek()
	if s < 0 {
		return false
	}
	q.dispatch(s)
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
		s := q.peek()
		if s < 0 || q.heap[0].at > limit {
			break
		}
		q.dispatch(s)
		n++
	}
	if q.now < limit {
		q.now = limit
	}
	return n, false
}

// Clear cancels and discards every pending event, leaving the queue
// empty at the current time. It is the cleanup step of an abandoned
// (cancelled) simulation: no callback fires, no event survives, and
// every outstanding Handle goes stale.
func (q *Queue) Clear() {
	for _, he := range q.heap {
		b := &q.buckets[he.idx]
		for _, s := range b.slots[b.head:] {
			q.freeSlot(s)
		}
		b.slots = b.slots[:0]
		b.head = 0
		q.freeIdx = append(q.freeIdx, he.idx)
	}
	q.heap = q.heap[:0]
	q.lastIdx = 0
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

// less orders heap entries by cycle, then by bucket creation sequence:
// a bucket opened earlier holds only events scheduled before every
// event of a later bucket at the same cycle, so (cycle, sequence) plus
// in-bucket append order is exactly global FIFO within a cycle.
//
//chimera:hot
func (q *Queue) less(a, b heapEntry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
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
