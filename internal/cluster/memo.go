package cluster

import (
	"container/list"
	"sync"
)

// memoBudget bounds the payload and hash bytes a Front's result memo
// holds. A solo result and its hash take about 60 bytes, so the budget
// holds tens of thousands of them.
const memoBudget = 4 << 20

// memo is the front's bounded in-process store of finished result
// payloads, keyed by jobspec content hash: an LRU under a byte budget.
// A content hash names one deterministic result, so an entry never goes
// stale; eviction exists only to bound memory. Payloads are kept exactly
// as the peer served them.
type memo struct {
	mu     sync.Mutex
	budget int
	size   int
	lru    *list.List // *memoEntry, most recently used first
	byHash map[string]*list.Element
}

type memoEntry struct {
	hash    string
	payload []byte
}

func newMemo(budget int) *memo {
	return &memo{budget: budget, lru: list.New(), byHash: make(map[string]*list.Element)}
}

// get returns the payload memoized for hash and marks it most recently
// used.
func (m *memo) get(hash string) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.byHash[hash]
	if !ok {
		return nil, false
	}
	m.lru.MoveToFront(el)
	return el.Value.(*memoEntry).payload, true
}

// put memoizes payload under hash, evicting least recently used entries
// past the budget. A payload larger than the whole budget is not kept.
func (m *memo) put(hash string, payload []byte) {
	cost := len(hash) + len(payload)
	if cost > m.budget {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.byHash[hash]; ok {
		m.lru.MoveToFront(el)
		return
	}
	m.byHash[hash] = m.lru.PushFront(&memoEntry{hash: hash, payload: payload})
	m.size += cost
	for m.size > m.budget {
		tail := m.lru.Back()
		e := tail.Value.(*memoEntry)
		m.lru.Remove(tail)
		delete(m.byHash, e.hash)
		m.size -= len(e.hash) + len(e.payload)
	}
}
