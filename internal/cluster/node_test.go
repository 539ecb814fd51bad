package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// fakeFetch builds a FetchFunc over a static member→payload table and
// records the consultation order.
func fakeFetch(table map[string][]byte, errs map[string]error, calls *[]string) FetchFunc {
	return func(_ context.Context, member, hash string) ([]byte, error) {
		*calls = append(*calls, member)
		if err := errs[member]; err != nil {
			return nil, err
		}
		if b, ok := table[member]; ok {
			return b, nil
		}
		return nil, ErrCacheMiss
	}
}

func testNode(self string, fetch FetchFunc) *Node {
	return &Node{
		Self:  self,
		Ring:  NewRing([]string{"http://a", "http://b", "http://c"}, 0),
		Fetch: fetch,
	}
}

func TestNodeLookupHit(t *testing.T) {
	var calls []string
	hash := "deadbeef00000001"
	n := testNode("http://self-not-on-ring",
		fakeFetch(map[string][]byte{
			"http://a": []byte(`{"a":1}`),
			"http://b": []byte(`{"b":1}`),
			"http://c": []byte(`{"c":1}`),
		}, nil, &calls))
	payload, from, err := n.Lookup(context.Background(), hash)
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	owner := n.Ring.Owner(hash)
	if from != owner {
		t.Errorf("served by %q, want owner %q", from, owner)
	}
	if string(payload) != string(map[string][]byte{
		"http://a": []byte(`{"a":1}`),
		"http://b": []byte(`{"b":1}`),
		"http://c": []byte(`{"c":1}`),
	}[owner]) {
		t.Errorf("payload %q not the owner's", payload)
	}
	if len(calls) != 1 {
		t.Errorf("consulted %v, want exactly the owner", calls)
	}
}

func TestNodeLookupSkipsSelf(t *testing.T) {
	var calls []string
	hash := "deadbeef00000001"
	owner := NewRing([]string{"http://a", "http://b", "http://c"}, 0).Owner(hash)
	// Self is the owner: Lookup must go to the next member instead.
	n := testNode(owner, fakeFetch(nil, nil, &calls))
	if _, _, err := n.Lookup(context.Background(), hash); !errors.Is(err, ErrCacheMiss) {
		t.Fatalf("Lookup err = %v, want ErrCacheMiss", err)
	}
	if len(calls) != 1 || calls[0] == owner {
		t.Errorf("consulted %v; must skip self %q and ask exactly one peer", calls, owner)
	}
}

func TestNodeLookupTransportError(t *testing.T) {
	var calls []string
	boom := errors.New("boom")
	hash := "deadbeef00000001"
	owner := NewRing([]string{"http://a", "http://b", "http://c"}, 0).Owner(hash)
	n := testNode("", fakeFetch(nil, map[string]error{owner: boom}, &calls))
	if _, _, err := n.Lookup(context.Background(), hash); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the transport error", err)
	}
}

func TestNodeLookupNil(t *testing.T) {
	var n *Node
	if _, _, err := n.Lookup(context.Background(), "x"); !errors.Is(err, ErrCacheMiss) {
		t.Fatalf("nil node err = %v, want ErrCacheMiss", err)
	}
}

func TestHTTPFetchProtocol(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case CachePathPrefix + "have":
			fmt.Fprint(w, `{"ok":true}`)
		case CachePathPrefix + "miss":
			http.NotFound(w, r)
		default:
			w.WriteHeader(http.StatusInternalServerError)
		}
	}))
	defer ts.Close()

	fetch := NewHTTPFetch(ts.Client())
	ctx := context.Background()
	if b, err := fetch(ctx, ts.URL, "have"); err != nil || string(b) != `{"ok":true}` {
		t.Errorf("have: %q, %v", b, err)
	}
	if _, err := fetch(ctx, ts.URL, "miss"); !errors.Is(err, ErrCacheMiss) {
		t.Errorf("miss: err = %v, want ErrCacheMiss", err)
	}
	if _, err := fetch(ctx, ts.URL, "boom"); err == nil || errors.Is(err, ErrCacheMiss) {
		t.Errorf("500: err = %v, want a status error", err)
	}
}

// TestHTTPFetchKeepsConnections: a miss or a refusal reads its body
// through before returning, so the transport keeps the connection and a
// run of cold fetches against one member costs one TCP dial, not one
// per fetch.
func TestHTTPFetchKeepsConnections(t *testing.T) {
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == CachePathPrefix+"boom" {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		http.NotFound(w, r)
	}))
	var accepted atomic.Int64
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			accepted.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()

	fetch := NewHTTPFetch(ts.Client())
	ctx := context.Background()
	for i := 0; i < 100; i++ {
		if _, err := fetch(ctx, ts.URL, "miss"); !errors.Is(err, ErrCacheMiss) {
			t.Fatalf("miss %d: err = %v, want ErrCacheMiss", i, err)
		}
	}
	if got := accepted.Load(); got != 1 {
		t.Fatalf("100 misses opened %d connections, want 1", got)
	}
	for i := 0; i < 10; i++ {
		if _, err := fetch(ctx, ts.URL, "boom"); err == nil || errors.Is(err, ErrCacheMiss) {
			t.Fatalf("500 %d: err = %v, want a status error", i, err)
		}
	}
	if got := accepted.Load(); got != 1 {
		t.Errorf("10 refusals after the misses opened %d connections in all, want 1", got)
	}
}
