// Fleet integration test: several in-process chimerad replicas plus a
// Front, proving the tentpole contract end to end — a fleet of N
// approximates one shared memoizing cache (summed simjob executions ==
// distinct spec hashes), results stay byte-identical to a single-node
// run, and a job computed on replica A is served from A's cache to a
// request routed via replica B without a recompute.
//
// It lives in the external cluster_test package: internal/server
// imports internal/cluster, so only an external test can close the
// loop over both.
package cluster_test

import (
	"bytes"
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"chimera/internal/cluster"
	"chimera/internal/jobspec"
	"chimera/internal/server"
	"chimera/internal/server/client"
)

// lateHandler is an http.Handler whose target is bound after the
// listener URL is known — replicas need every peer's URL (their own
// included) before server.New can build their cluster node.
type lateHandler struct {
	h atomic.Pointer[http.Handler]
}

func (l *lateHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h := l.h.Load(); h != nil {
		(*h).ServeHTTP(w, r)
		return
	}
	http.Error(w, "booting", http.StatusServiceUnavailable)
}

// fleet is an in-process replica fleet plus its front.
type fleet struct {
	urls    []string
	servers []*server.Server
	front   *cluster.Front
	frontTS *httptest.Server
	// accepted counts the TCP connections the replicas accepted.
	accepted atomic.Int64
}

// bootFleet starts n peer-cache-armed replicas and a front over them.
// It takes testing.TB so the fleet benchmarks boot the same topology.
func bootFleet(t testing.TB, n int) *fleet {
	t.Helper()
	f := &fleet{}
	late := make([]*lateHandler, n)
	for i := 0; i < n; i++ {
		late[i] = &lateHandler{}
		ts := httptest.NewUnstartedServer(late[i])
		ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				f.accepted.Add(1)
			}
		}
		ts.Start()
		t.Cleanup(ts.Close)
		f.urls = append(f.urls, ts.URL)
	}
	for i := 0; i < n; i++ {
		srv := server.New(server.Config{
			Workers: 2,
			Cluster: &cluster.Node{
				Self:  f.urls[i],
				Ring:  cluster.NewRing(f.urls, 0),
				Fetch: cluster.NewHTTPFetch(&http.Client{Timeout: 2 * time.Second}),
			},
		})
		f.servers = append(f.servers, srv)
		h := srv.Handler()
		late[i].h.Store(&h)
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				t.Errorf("replica shutdown: %v", err)
			}
		})
	}
	f.front = cluster.NewFront(cluster.FrontConfig{Replicas: f.urls})
	f.frontTS = httptest.NewServer(f.front.Handler())
	t.Cleanup(f.frontTS.Close)
	return f
}

// executed sums actual simulation executions across the fleet.
func (f *fleet) executed() int64 {
	var total int64
	for _, s := range f.servers {
		total += s.Cache().Stats().JobsRun
	}
	return total
}

// fleetSpecs builds the distinct specs the tests drive.
func fleetSpecs(n int) []jobspec.Spec {
	specs := make([]jobspec.Spec, 0, n)
	for i := 0; i < n; i++ {
		specs = append(specs, jobspec.Solo("SAD").WithWindowUs(200).WithSeed(uint64(1000+i)))
	}
	return specs
}

// TestFleetSharedCache drives distinct specs plus duplicates through
// the front and checks the one-shared-cache arithmetic exactly.
func TestFleetSharedCache(t *testing.T) {
	f := bootFleet(t, 3)
	ctx := context.Background()
	specs := fleetSpecs(6)

	// Single-node baseline for byte-identical comparison.
	baseline := server.New(server.Config{Workers: 2})
	baseTS := httptest.NewServer(baseline.Handler())
	t.Cleanup(baseTS.Close)
	t.Cleanup(func() {
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = baseline.Shutdown(sctx)
	})
	baseC := client.New(baseTS.URL)
	want := make([][]byte, len(specs))
	for i, spec := range specs {
		st, err := baseC.SubmitWait(ctx, spec)
		if err != nil || st.State != server.StateDone {
			t.Fatalf("baseline spec %d: %v %v", i, st.State, err)
		}
		want[i] = append([]byte(nil), st.Result...)
	}

	c := client.New(f.frontTS.URL)
	for pass := 0; pass < 2; pass++ {
		for i, spec := range specs {
			st, err := c.SubmitWait(ctx, spec)
			if err != nil {
				t.Fatalf("pass %d spec %d: %v", pass, i, err)
			}
			if st.State != server.StateDone {
				t.Fatalf("pass %d spec %d finished %s: %s", pass, i, st.State, st.Error)
			}
			if !bytes.Equal(st.Result, want[i]) {
				t.Errorf("pass %d spec %d: result differs from single-node baseline\nfleet: %s\nsolo:  %s",
					pass, i, st.Result, want[i])
			}
			if pass > 0 && !st.Deduped {
				t.Errorf("pass %d spec %d not served as duplicate", pass, i)
			}
		}
	}

	if got := f.executed(); got != int64(len(specs)) {
		t.Errorf("fleet executed %d simulations for %d submissions, want exactly %d (one per distinct spec)",
			got, 2*len(specs), len(specs))
	}
	if got := f.front.Registry().Counter(cluster.MetricFrontRouted).Value(); got != int64(len(specs)) {
		t.Errorf("front routed %d, want %d", got, len(specs))
	}
	if got := f.front.Registry().Counter(cluster.MetricFrontCacheHits).Value(); got != int64(len(specs)) {
		t.Errorf("front cache hits %d, want %d", got, len(specs))
	}
}

// TestFleetMemoArithmetic submits 8 distinct specs 3 times each,
// serially, as the fleet smoke does: the first pass computes on the
// owners, the second is served by peer probes that fill the front's
// memo, and the third by the memo alone.
func TestFleetMemoArithmetic(t *testing.T) {
	f := bootFleet(t, 2)
	ctx := context.Background()
	c := client.New(f.frontTS.URL)
	const distinct, repeats = 8, 3
	specs := fleetSpecs(distinct)
	first := make([][]byte, distinct)
	for pass := 0; pass < repeats; pass++ {
		for i, spec := range specs {
			st, err := c.SubmitWait(ctx, spec)
			if err != nil || st.State != server.StateDone {
				t.Fatalf("pass %d spec %d: %v %v", pass, i, st.State, err)
			}
			if pass == 0 {
				first[i] = append([]byte(nil), st.Result...)
			} else if !bytes.Equal(st.Result, first[i]) || !st.Deduped {
				t.Errorf("pass %d spec %d: deduped %v, result %s, want %s", pass, i, st.Deduped, st.Result, first[i])
			}
		}
	}
	var peerServed int64
	for _, s := range f.servers {
		peerServed += s.Registry().Counter(server.MetricPeerServed).Value()
	}
	reg := f.front.Registry()
	for name, n := range map[string]struct{ got, want int64 }{
		"executed":    {f.executed(), distinct},
		"routed":      {reg.Counter(cluster.MetricFrontRouted).Value(), distinct},
		"cache hits":  {reg.Counter(cluster.MetricFrontCacheHits).Value(), distinct * (repeats - 1)},
		"memo hits":   {reg.Counter(cluster.MetricFrontMemoHits).Value(), distinct},
		"peer served": {peerServed, distinct},
	} {
		if n.got != n.want {
			t.Errorf("%s = %d, want %d", name, n.got, n.want)
		}
	}
}

// TestFleetKeepsConnections: a cold wait=1 submission makes two
// peer-cache misses, the front's probe of the owner and the owner's
// lookup at its successor. Both read the 404 through, so every hop
// keeps its connection and the replicas accept a number of connections
// that does not grow with the submissions. In process, the front and
// the replicas share http.DefaultTransport, which keeps up to two idle
// connections per replica.
func TestFleetKeepsConnections(t *testing.T) {
	f := bootFleet(t, 3)
	ctx := context.Background()
	c := client.New(f.frontTS.URL)
	const submissions = 30
	for i, spec := range fleetSpecs(submissions) {
		if st, err := c.SubmitWait(ctx, spec); err != nil || st.State != server.StateDone {
			t.Fatalf("spec %d: %v %v", i, st.State, err)
		}
	}
	if got, limit := f.accepted.Load(), int64(2*len(f.urls)); got > limit {
		t.Errorf("%d cold submissions made the replicas accept %d connections, want at most %d",
			submissions, got, limit)
	}
}

// TestFleetOwnerAnswersRepeatsLocally: repeats sent straight to a
// spec's owner are answered from the owner's own finished-result
// index, so only the first submission asks the successor's peer cache.
func TestFleetOwnerAnswersRepeatsLocally(t *testing.T) {
	f := bootFleet(t, 2)
	ctx := context.Background()
	spec := jobspec.Solo("SAD").WithWindowUs(200).WithSeed(5150)
	norm := spec
	norm.Normalize()
	owner := slices.Index(f.urls, f.front.Ring().Owner(norm.Hash()))
	c := client.New(f.urls[owner])
	var first []byte
	for i := 0; i < 3; i++ {
		st, err := c.SubmitWait(ctx, spec)
		if err != nil || st.State != server.StateDone {
			t.Fatalf("submission %d: %v %v", i, st.State, err)
		}
		if i == 0 {
			first = append([]byte(nil), st.Result...)
		} else if !bytes.Equal(st.Result, first) || !st.Deduped {
			t.Errorf("submission %d: deduped %v, result %s, want %s", i, st.Deduped, st.Result, first)
		}
	}
	if got := f.servers[owner].Registry().Counter(server.MetricPeerMisses).Value(); got != 1 {
		t.Errorf("owner counted %d peer misses for 3 submissions of one spec, want 1", got)
	}
	if got := f.servers[owner].Cache().Stats().JobsRun; got != 1 {
		t.Errorf("owner executed %d simulations, want 1", got)
	}
}

// TestFleetCrossReplicaServe is the acceptance scenario verbatim: a job
// computed on replica A (the hash owner) is served from A's cache to a
// request submitted via replica B, with no recompute anywhere.
func TestFleetCrossReplicaServe(t *testing.T) {
	f := bootFleet(t, 3)
	ctx := context.Background()

	// Pick a spec and identify owner A and a distinct replica B.
	spec := jobspec.Solo("SAD").WithWindowUs(200).WithSeed(4242)
	norm := spec
	norm.Normalize()
	ring := cluster.NewRing(f.urls, 0)
	ownerURL := ring.Owner(norm.Hash())
	a, b := -1, -1
	for i, u := range f.urls {
		if u == ownerURL {
			a = i
		} else if b < 0 {
			b = i
		}
	}
	if a < 0 || b < 0 {
		t.Fatalf("could not split owner/non-owner among %v (owner %s)", f.urls, ownerURL)
	}

	// Compute on A.
	stA, err := client.New(f.urls[a]).SubmitWait(ctx, spec)
	if err != nil || stA.State != server.StateDone {
		t.Fatalf("owner submit: %v %v", stA.State, err)
	}
	if got := f.servers[a].Cache().Stats().JobsRun; got != 1 {
		t.Fatalf("owner executed %d, want 1", got)
	}

	// Submit the same spec via B: served from A's peer cache.
	stB, err := client.New(f.urls[b]).SubmitWait(ctx, spec)
	if err != nil || stB.State != server.StateDone {
		t.Fatalf("non-owner submit: %v %v", stB.State, err)
	}
	if !bytes.Equal(stA.Result, stB.Result) {
		t.Errorf("peer-served result differs:\nA: %s\nB: %s", stA.Result, stB.Result)
	}
	if got := f.servers[b].Cache().Stats().JobsRun; got != 0 {
		t.Errorf("replica B executed %d simulations, want 0 (peer cache must serve)", got)
	}
	if got := f.servers[b].Registry().Counter(server.MetricPeerHits).Value(); got != 1 {
		t.Errorf("replica B peer_hits = %d, want 1", got)
	}
	if got := f.servers[a].Registry().Counter(server.MetricPeerServed).Value(); got != 1 {
		t.Errorf("replica A peer_served = %d, want 1", got)
	}
}

// TestFleetOwnerDeath checks the rerouting contract: when the owner
// dies, the ring reroutes and the job recomputes on a survivor —
// correctness never depends on the cache.
func TestFleetOwnerDeath(t *testing.T) {
	f := bootFleet(t, 3)
	ctx := context.Background()

	spec := jobspec.Solo("SAD").WithWindowUs(200).WithSeed(777)
	norm := spec
	norm.Normalize()
	ownerURL := f.front.Ring().Owner(norm.Hash())

	// Compute once through the front (lands on the owner).
	c := client.New(f.frontTS.URL)
	st1, err := c.SubmitWait(ctx, spec)
	if err != nil || st1.State != server.StateDone {
		t.Fatalf("first submit: %v %v", st1.State, err)
	}

	// Kill the owner: its listener refuses, the front must fail over and
	// a survivor recomputes (its own peer lookup now errors — ignored).
	f.front.Membership().MarkDown(ownerURL)
	before := f.executed()
	st2, err := c.SubmitWait(ctx, spec)
	if err != nil || st2.State != server.StateDone {
		t.Fatalf("post-death submit: %v %v", st2.State, err)
	}
	if !bytes.Equal(st1.Result, st2.Result) {
		t.Errorf("recomputed result differs:\n%s\nvs\n%s", st1.Result, st2.Result)
	}
	// Served either from the dead owner's still-reachable cache (we only
	// marked it down at the front) or recomputed; both are correct. What
	// must not happen is an error or a miscount.
	if after := f.executed(); after < before {
		t.Errorf("executed count went backwards: %d -> %d", before, after)
	}
}

// TestFleetListMerge checks the front's merged job list carries
// replica-prefixed IDs that resolve back through the front.
func TestFleetListMerge(t *testing.T) {
	f := bootFleet(t, 3)
	ctx := context.Background()
	c := client.New(f.frontTS.URL)

	specs := fleetSpecs(4)
	for i, spec := range specs {
		if st, err := c.SubmitWait(ctx, spec); err != nil || st.State != server.StateDone {
			t.Fatalf("spec %d: %v %v", i, st.State, err)
		}
	}
	list, err := c.List(ctx)
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	if len(list) != len(specs) {
		t.Fatalf("merged list has %d jobs, want %d", len(list), len(specs))
	}
	for _, st := range list {
		got, err := c.Status(ctx, st.ID)
		if err != nil {
			t.Errorf("status %s via front: %v", st.ID, err)
			continue
		}
		if got.ID != st.ID {
			t.Errorf("status id %q, want %q", got.ID, st.ID)
		}
	}
}
