// Deadline-aware admission queue: the ordering layer behind chimerad's
// submit path. Jobs are ordered by priority first (unchanged from the
// pure priority heap it replaces), then earliest-deadline-first within
// a priority level, with deadline-free jobs ranked after every
// deadlined one, and arrival order (Seq) breaking all remaining ties.
// The queue is purely deterministic — identical operation sequences
// yield identical pop orders — which is what FuzzAdmissionOrder checks
// against a reference model.

package sched

import "container/heap"

// Item is one queued admission entry.
type Item struct {
	// ID identifies the entry to Cancel; IDs must be unique among live
	// entries.
	ID string
	// Priority orders entries; higher pops first.
	Priority int
	// Deadline is the absolute deadline in whatever monotone unit the
	// caller uses (chimerad uses Unix milliseconds); 0 means none.
	// Within a priority level, earlier deadlines pop first and
	// deadline-free entries pop last.
	Deadline int64
	// Seq is the arrival sequence number, assigned by Push; it breaks
	// every remaining tie so equal (Priority, Deadline) entries stay
	// FIFO.
	Seq int64
	// Payload is the caller's job handle.
	Payload any
}

// admEntry wraps an Item in the heap with a lazy-deletion mark.
type admEntry struct {
	item    Item
	removed bool
}

// admHeap orders live entries per the queue contract.
type admHeap []*admEntry

// Len implements heap.Interface.
func (h admHeap) Len() int { return len(h) }

// Less implements the queue contract: priority first, earliest
// deadline next (deadline-free entries last), arrival order last.
func (h admHeap) Less(i, j int) bool {
	a, b := h[i].item, h[j].item
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	// Earliest deadline first; 0 (none) after every real deadline.
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

// Swap implements heap.Interface.
func (h admHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

// Push implements heap.Interface.
func (h *admHeap) Push(x any) { *h = append(*h, x.(*admEntry)) }

// Pop implements heap.Interface.
func (h *admHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// AdmissionQueue is a deterministic deadline-aware priority queue. The
// zero value is ready to use. Not safe for concurrent use; callers
// (chimerad) hold their own lock.
type AdmissionQueue struct {
	h       admHeap
	byID    map[string]*admEntry
	nextSeq int64
}

// Len reports the number of live entries.
func (q *AdmissionQueue) Len() int { return len(q.byID) }

// Push enqueues an entry, assigns its Seq, and returns the stored item.
// A duplicate live ID is rejected (ok == false).
func (q *AdmissionQueue) Push(it Item) (Item, bool) {
	if q.byID == nil {
		q.byID = make(map[string]*admEntry)
	}
	if _, dup := q.byID[it.ID]; dup {
		return Item{}, false
	}
	it.Seq = q.nextSeq
	q.nextSeq++
	e := &admEntry{item: it}
	q.byID[it.ID] = e
	heap.Push(&q.h, e)
	return it, true
}

// Pop removes and returns the highest-ranked live entry.
func (q *AdmissionQueue) Pop() (Item, bool) {
	for q.h.Len() > 0 {
		e := heap.Pop(&q.h).(*admEntry)
		if e.removed {
			continue
		}
		delete(q.byID, e.item.ID)
		return e.item, true
	}
	return Item{}, false
}

// Cancel removes the live entry with the given ID; it reports whether
// one existed. Removal is lazy: the entry is unlinked immediately but
// its heap slot is reclaimed on a later Pop.
func (q *AdmissionQueue) Cancel(id string) bool {
	e, ok := q.byID[id]
	if !ok {
		return false
	}
	e.removed = true
	delete(q.byID, id)
	return true
}

// Hopeless is chimerad's shed-on-hopeless predicate: given the
// requester's remaining deadline budget, the current queue depth, the
// worker count and the estimated per-job service time (all in the same
// time unit), it predicts the completion time of a job admitted right
// now — wait for the jobs ahead of it plus its own service — and
// reports whether that already exceeds the budget. A zero budget means
// no deadline (never hopeless); non-positive estimates or worker counts
// predict nothing and admit. The decision is a pure function, so a
// fixed (budget, depth, workers, estimate) tuple always sheds or always
// admits — the determinism FuzzAdmissionOrder locks in.
func Hopeless(budget float64, queued, workers int, estService float64) bool {
	if budget <= 0 || estService <= 0 || workers <= 0 {
		return false
	}
	waves := float64(queued/workers + 1)
	return waves*estService > budget
}
