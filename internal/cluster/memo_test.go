package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"chimera/internal/jobspec"
)

// memoHashes lists the store's hashes, most recently used first.
func memoHashes(m *Results) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for el := m.lru.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*resultEntry).hash)
	}
	return out
}

func TestMemoEvictsLeastRecentlyUsed(t *testing.T) {
	// Each entry costs 1 hash byte + 9 payload bytes; three fit.
	m := NewResults()
	m.budget = 30
	for _, h := range []string{"a", "b", "c"} {
		m.Put(h, []byte("payload-"+h))
	}
	if _, ok := m.Get("a"); !ok { // a becomes most recently used
		t.Fatal("a missing before the budget was reached")
	}
	m.Put("d", []byte("payload-d")) // evicts b, the least recently used
	if got := strings.Join(memoHashes(m), ""); got != "dac" {
		t.Errorf("memo order %q, want dac", got)
	}
	if _, ok := m.Get("b"); ok {
		t.Error("b survived eviction")
	}
	if m.size != 30 {
		t.Errorf("size %d, want 30", m.size)
	}
	// A repeat put refreshes recency and keeps the first payload.
	m.Put("c", []byte("payload-x"))
	if p, _ := m.Get("c"); string(p) != "payload-c" {
		t.Errorf("c = %q, want the first payload", p)
	}
	// A payload larger than the whole budget is never kept.
	m.Put("e", make([]byte, 30))
	if _, ok := m.Get("e"); ok || m.size != 30 {
		t.Errorf("oversized payload kept (size %d)", m.size)
	}
}

// memoFront is a Front over one replica whose every POST counts and
// answers routedReply, with a peer cache that counts fetches and serves
// payload.
type memoFront struct {
	f       *Front
	routed  atomic.Int64
	fetches atomic.Int64
}

// routedReply is the replica's canned answer to every submission.
const routedReply = `{"id":"j1","state":"done","result":{"kind":"solo","solo_rate":2}}`

func newMemoFront(t *testing.T, payload []byte) *memoFront {
	t.Helper()
	mf := &memoFront{}
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mf.routed.Add(1)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, routedReply)
	}))
	t.Cleanup(replica.Close)
	mf.f = NewFront(FrontConfig{
		Replicas: []string{replica.URL},
		Fetch: func(context.Context, string, string) ([]byte, error) {
			mf.fetches.Add(1)
			return payload, nil
		},
	})
	return mf
}

func (mf *memoFront) do(t *testing.T, method, target, body string) *httptest.ResponseRecorder {
	t.Helper()
	rr := httptest.NewRecorder()
	mf.f.Handler().ServeHTTP(rr, httptest.NewRequest(method, target, strings.NewReader(body)))
	return rr
}

// TestFrontMemoAnswersRepeats: the first wait=1 repeat is served by a
// peer probe that fills the memo, and every later one by the memo, with
// the same bytes and no replica traffic.
func TestFrontMemoAnswersRepeats(t *testing.T) {
	payload := []byte(`{"kind":"solo","solo_rate":1.5}`)
	mf := newMemoFront(t, payload)
	body := string(submitBody(t, jobspec.Solo("SAD").WithSeed(7)))

	first := mf.do(t, http.MethodPost, "/api/v1/jobs?wait=1", body)
	if first.Code != http.StatusOK || mf.fetches.Load() != 1 {
		t.Fatalf("probe-served reply: %d after %d fetches: %s", first.Code, mf.fetches.Load(), first.Body)
	}
	for i := 0; i < 3; i++ {
		rr := mf.do(t, http.MethodPost, "/api/v1/jobs?wait=1", body)
		if rr.Code != http.StatusOK || !bytes.Equal(rr.Body.Bytes(), first.Body.Bytes()) {
			t.Fatalf("repeat %d: %d %s, want the probe-served bytes %s", i, rr.Code, rr.Body, first.Body)
		}
	}
	if n := mf.fetches.Load(); n != 1 {
		t.Errorf("peer fetched %d times, want 1", n)
	}
	if n := mf.routed.Load(); n != 0 {
		t.Errorf("replica routed %d submissions, want 0", n)
	}
	reg := mf.f.Registry()
	if hits, memo := reg.Counter(MetricFrontCacheHits).Value(), reg.Counter(MetricFrontMemoHits).Value(); hits != 4 || memo != 3 {
		t.Errorf("cache hits %d, memo hits %d; want 4 and 3", hits, memo)
	}

	// The synthetic ID's result route answers from the memo too.
	spec := jobspec.Solo("SAD").WithSeed(7)
	rr := mf.do(t, http.MethodGet, "/api/v1/jobs/cache."+spec.Hash()+"/result", "")
	if rr.Code != http.StatusOK || !bytes.Equal(rr.Body.Bytes(), payload) || mf.fetches.Load() != 1 {
		t.Errorf("cache-id result: %d %s after %d fetches", rr.Code, rr.Body, mf.fetches.Load())
	}
}

// TestFrontMemoSkipsUncacheable: async submissions and trace specs are
// routed every time and never fill the memo.
func TestFrontMemoSkipsUncacheable(t *testing.T) {
	mf := newMemoFront(t, []byte(`{"kind":"periodic"}`))
	for name, c := range map[string]struct{ target, body string }{
		"async": {"/api/v1/jobs", string(submitBody(t, jobspec.Solo("SAD")))},
		"trace": {"/api/v1/jobs?wait=1", string(submitBody(t, jobspec.Periodic("SAD", jobspec.PolicyChimera).WithTrace()))},
	} {
		for i := 0; i < 2; i++ {
			if rr := mf.do(t, http.MethodPost, c.target, c.body); rr.Code != http.StatusOK {
				t.Fatalf("%s submission %d: %d %s", name, i, rr.Code, rr.Body)
			}
		}
	}
	if n := mf.routed.Load(); n != 4 {
		t.Errorf("replica routed %d submissions, want 4", n)
	}
	if n := mf.fetches.Load(); n != 0 {
		t.Errorf("peer fetched %d times, want 0", n)
	}
	if h := memoHashes(mf.f.results); len(h) != 0 {
		t.Errorf("memo holds %v", h)
	}
}

// TestFrontRejectsGarbagePayload: a peer payload that is not a result is
// a miss. The submission is routed and gets the replica's reply (it
// used to get 200 with an empty body), the cache-id routes answer 404,
// and the memo stays empty.
func TestFrontRejectsGarbagePayload(t *testing.T) {
	for _, garbage := range []string{"{not json", "", `"text"`, "[1,2]"} {
		mf := newMemoFront(t, []byte(garbage))
		body := `{"kind":"solo","bench":"SAD","window_us":50}`
		for i := 0; i < 2; i++ {
			rr := mf.do(t, http.MethodPost, "/api/v1/jobs?wait=1", body)
			if rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), `"solo_rate":2`) {
				t.Errorf("payload %q, submission %d: %d %q, want the replica's reply", garbage, i, rr.Code, rr.Body)
			}
		}
		if n := mf.routed.Load(); n != 2 {
			t.Errorf("payload %q: replica routed %d, want 2", garbage, n)
		}
		spec := jobspec.Solo("SAD").WithWindowUs(50)
		for _, suffix := range []string{"", "/result"} {
			rr := mf.do(t, http.MethodGet, "/api/v1/jobs/cache."+spec.Hash()+suffix, "")
			if rr.Code != http.StatusNotFound {
				t.Errorf("payload %q: cache-id route %q answered %d %q, want 404", garbage, suffix, rr.Code, rr.Body)
			}
		}
		if h := memoHashes(mf.f.results); len(h) != 0 {
			t.Errorf("payload %q: memo holds %v", garbage, h)
		}
		if n := mf.f.Registry().Counter(MetricFrontCacheHits).Value(); n != 0 {
			t.Errorf("payload %q: cache hits %d, want 0", garbage, n)
		}
	}
}
