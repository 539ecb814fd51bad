package cluster

import (
	"context"
	"sort"
	"sync"
)

// ProbeFunc checks one member's health; a nil error means alive. The
// HTTP implementation (a GET on /healthz) lives in the daemons, which
// own real clocks and transports — this package only consumes the
// verdicts, so its view stays free of wallclock reads.
type ProbeFunc func(ctx context.Context, member string) error

// Membership is a bounded-stale health view over a static seed list.
// There is no gossip and no external dependency: the member set is
// fixed at construction (the fleet's seed list), and liveness is
// whatever the last probe round — or the last MarkDown/MarkUp from a
// failed or recovered request — observed. Staleness is bounded by the
// caller's probe cadence plus the demand-driven marks; routing through
// a stale view is safe because every consumer (front, peer cache)
// falls over to the next member or to a local recompute when a listed
// member turns out to be dead.
type Membership struct {
	members []string // sorted, immutable

	mu   sync.Mutex
	down map[string]bool
}

// NewMembership builds a view over the seed list with every member
// presumed alive. The list is deduplicated and sorted, mirroring
// NewRing's canonicalization.
func NewMembership(members []string) *Membership {
	r := NewRing(members, 1) // reuse the canonicalization
	return &Membership{members: r.Members(), down: make(map[string]bool)}
}

// Members returns the full (alive + down) member list in sorted order.
// The slice is shared; callers must not mutate it.
func (m *Membership) Members() []string { return m.members }

// Alive returns the members currently presumed alive, in sorted order.
func (m *Membership) Alive() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.members))
	for _, mem := range m.members {
		if !m.down[mem] {
			out = append(out, mem)
		}
	}
	return out
}

// IsAlive reports whether member is currently presumed alive. Unknown
// members are dead: they are not part of the fleet.
func (m *Membership) IsAlive(member string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.isAliveLocked(member)
}

// isAliveLocked is IsAlive under m.mu.
func (m *Membership) isAliveLocked(member string) bool {
	i := sort.SearchStrings(m.members, member)
	if i >= len(m.members) || m.members[i] != member {
		return false
	}
	return !m.down[member]
}

// MarkDown records a demand-driven death observation (a failed request
// or probe); the member stops appearing in Alive until a probe or
// MarkUp revives it.
func (m *Membership) MarkDown(member string) {
	m.mu.Lock()
	m.down[member] = true
	m.mu.Unlock()
}

// MarkUp records a demand-driven recovery observation.
func (m *Membership) MarkUp(member string) {
	m.mu.Lock()
	delete(m.down, member)
	m.mu.Unlock()
}

// ProbeOnce runs one health round: every member is probed (in sorted
// order, sequentially — fleets are small) and the view is updated from
// the verdicts. It returns the number of members observed down. The
// caller owns the cadence; the view between rounds is bounded-stale by
// construction.
func (m *Membership) ProbeOnce(ctx context.Context, probe ProbeFunc) int {
	downCount := 0
	for _, mem := range m.members {
		err := probe(ctx, mem)
		m.mu.Lock()
		if err != nil {
			m.down[mem] = true
			downCount++
		} else {
			delete(m.down, mem)
		}
		m.mu.Unlock()
	}
	return downCount
}
