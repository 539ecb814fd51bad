package cluster

import (
	"container/list"
	"sync"
)

// resultsBudget bounds the payload and hash bytes one Results holds. A
// periodic result of 2,000 µs, the largest of the common spec shapes,
// takes at most 429 bytes plus its 16-byte hash, so the budget holds
// over 9,000 of them; a solo result takes about 60 bytes.
const resultsBudget = 4 << 20

// Results is a concurrency-safe store of finished result payloads,
// kept verbatim and keyed by jobspec content hash: an LRU under a 4 MiB
// budget of payload and hash bytes. A content hash names one
// deterministic result, so an entry never goes stale; eviction only
// bounds memory. The front memoizes what peers served in one, and each
// replica indexes its own finished results in one for its peer route.
type Results struct {
	mu     sync.Mutex
	budget int
	size   int
	lru    *list.List // *resultEntry, most recently used first
	byHash map[string]*list.Element
}

type resultEntry struct {
	hash    string
	payload []byte
}

// NewResults returns an empty store.
func NewResults() *Results {
	return &Results{budget: resultsBudget, lru: list.New(), byHash: make(map[string]*list.Element)}
}

// Get returns the payload stored for hash and marks it most recently
// used.
func (m *Results) Get(hash string) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.byHash[hash]
	if !ok {
		return nil, false
	}
	m.lru.MoveToFront(el)
	return el.Value.(*resultEntry).payload, true
}

// Put stores payload under hash, evicting least recently used entries
// past the budget. A hash already stored keeps its payload and only
// becomes most recently used; a payload larger than the whole budget is
// not kept.
func (m *Results) Put(hash string, payload []byte) {
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
	m.byHash[hash] = m.lru.PushFront(&resultEntry{hash: hash, payload: payload})
	m.size += cost
	for m.size > m.budget {
		tail := m.lru.Back()
		e := tail.Value.(*resultEntry)
		m.lru.Remove(tail)
		delete(m.byHash, e.hash)
		m.size -= len(e.hash) + len(e.payload)
	}
}
