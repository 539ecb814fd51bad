package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"chimera/internal/workloads"
)

// CachePathPrefix is the peer result-cache route every replica serves:
// GET {replica}/internal/cache/{hash} answers 200 with the finished
// JobResult JSON when the replica holds a completed result for that
// jobspec content hash, and 404 otherwise. The route never computes
// anything — it is a pure read of the replica's finished-result index.
const CachePathPrefix = "/internal/cache/"

// ErrCacheMiss reports that a consulted peer does not hold the result
// (an HTTP 404 from the peer-cache route).
var ErrCacheMiss = errors.New("cluster: peer cache miss")

// FetchFunc retrieves the finished result for one jobspec hash from
// one member's peer cache. It returns ErrCacheMiss when the member
// answers 404 and a transport or status error otherwise; NewHTTPFetch
// is the production implementation, tests inject fakes.
type FetchFunc func(ctx context.Context, member, hash string) ([]byte, error)

// NewHTTPFetch returns a FetchFunc speaking the HTTP peer-cache
// protocol against member base URLs ("http://host:port"). The caller
// bounds each fetch through ctx; Node.Lookup and the front bound theirs
// by lookupTimeout and treat any error as a miss.
func NewHTTPFetch(hc *http.Client) FetchFunc {
	if hc == nil {
		hc = http.DefaultClient
	}
	return func(ctx context.Context, member, hash string) ([]byte, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, member+CachePathPrefix+hash, nil)
		if err != nil {
			return nil, err
		}
		resp, err := hc.Do(req)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode == http.StatusOK {
			defer resp.Body.Close()
			return io.ReadAll(io.LimitReader(resp.Body, 1<<24))
		}
		// A miss is the common answer on a cold job's path; reading its
		// body through keeps the connection for the next fetch.
		drainResponse(resp)
		if resp.StatusCode == http.StatusNotFound {
			return nil, ErrCacheMiss
		}
		return nil, fmt.Errorf("cluster: peer cache %s: unexpected status %d", member, resp.StatusCode)
	}
}

// drainLimit bounds how much of an unwanted response body drainResponse
// reads: error envelopes are a few dozen bytes, and a longer body costs
// less to close than to read.
const drainLimit = 4 << 10

// drainResponse reads up to drainLimit bytes of a response body it does
// not use, then closes it. net/http keeps a keep-alive connection only
// if its body was read to EOF before Close, so skipping the read would
// cost the next request to that member a TCP dial.
func drainResponse(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, drainLimit))
	resp.Body.Close()
}

// ValidPayload reports whether a peer-cache payload decodes as a
// finished job result (workloads.SpecResult, chimerad's JobResult).
// Replicas and the front accept a peer payload only if it does
// (fetchPeer), so bytes that are not a result are never served or
// stored.
func ValidPayload(payload []byte) bool {
	return json.Unmarshal(payload, new(workloads.SpecResult)) == nil
}

// lookupTimeout bounds one peer-cache fetch, on a replica's job path and
// on the front's: a slow or dead peer costs at most this before the job
// is computed or routed.
const lookupTimeout = 250 * time.Millisecond

// fetchPeer is the one peer-cache fetch of replicas and the front: it
// asks member for hash's finished result through fetch, bounded by
// lookupTimeout, and fails on a payload that is not a result.
func fetchPeer(ctx context.Context, fetch FetchFunc, member, hash string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, lookupTimeout)
	defer cancel()
	payload, err := fetch(ctx, member, hash)
	if err != nil {
		return nil, err
	}
	if !ValidPayload(payload) {
		return nil, fmt.Errorf("cluster: peer cache %s: payload is not a result", member)
	}
	return payload, nil
}

// Node is one replica's view of the fleet: its own advertised base
// URL, the shared ring, and the fetch transport. A server configured
// with a Node consults the hash-owner's peer cache before recomputing
// a job another replica already finished, so a fleet of N approximates
// one shared memoizing cache. Every field is immutable after
// construction.
type Node struct {
	// Self is this replica's advertised base URL; Lookup never
	// consults it (its results are already local).
	Self string
	// Ring maps jobspec hashes to owning members. All replicas and the
	// front build the ring from the same seed list, so they agree on
	// ownership without coordination.
	Ring *Ring
	// Fetch retrieves one hash from one member's peer cache.
	Fetch FetchFunc
}

// Lookup asks the hash's first non-self member in Ring.Sequence order —
// the owner, or its successor when this replica owns the hash — for a
// finished result (fetchPeer). It returns the payload and the member
// that served it; ErrCacheMiss when that peer missed (or there is
// none); and the fetch error otherwise, a payload that is not a result
// included. A nil error never means "compute anyway", and any error
// means exactly that.
func (n *Node) Lookup(ctx context.Context, hash string) (payload []byte, from string, err error) {
	if n == nil || n.Ring == nil || n.Fetch == nil {
		return nil, "", ErrCacheMiss
	}
	for _, member := range n.Ring.Sequence(hash) {
		if member == n.Self {
			continue
		}
		b, err := fetchPeer(ctx, n.Fetch, member, hash)
		if err != nil {
			return nil, "", err
		}
		return b, member, nil
	}
	return nil, "", ErrCacheMiss
}
