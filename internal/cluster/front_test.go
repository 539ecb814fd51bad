package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"chimera/internal/jobspec"
)

// submitBody marshals one spec the way a client posts it.
func submitBody(t *testing.T, spec jobspec.Spec) []byte {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestFrontShedsPastMaxInflight(t *testing.T) {
	f := NewFront(FrontConfig{Replicas: []string{"http://a"}, MaxInflight: 2})
	f.inflight.Add(2) // two admissions permanently in flight
	req := httptest.NewRequest(http.MethodPost, "/api/v1/jobs",
		bytes.NewReader(submitBody(t, jobspec.Solo("SAD"))))
	rr := httptest.NewRecorder()
	f.Handler().ServeHTTP(rr, req)
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", rr.Code)
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	if got := f.reg.Counter(MetricFrontShed).Value(); got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}
	// The cap releases: with inflight back under it, the submission is
	// admitted (and fails downstream only because no replica exists).
	f.inflight.Add(-2)
	rr = httptest.NewRecorder()
	f.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/api/v1/jobs",
		bytes.NewReader(submitBody(t, jobspec.Solo("SAD")))))
	if rr.Code == http.StatusTooManyRequests {
		t.Fatalf("still shedding after inflight drained")
	}
}

func TestSplitID(t *testing.T) {
	f := NewFront(FrontConfig{Replicas: []string{"http://a", "http://b"}})
	cases := []struct {
		id    string
		idx   int
		local string
		ok    bool
	}{
		{"r0.j7", 0, "j7", true},
		{"r1.j7", 1, "j7", true},
		{"r2.j7", 0, "", false}, // out of range
		{"j7", 0, "", false},
		{"r.j7", 0, "", false},
		{"r0.", 0, "", false},
		{"rx.j7", 0, "", false},
	}
	for _, c := range cases {
		idx, local, ok := f.splitID(c.id)
		if idx != c.idx || local != c.local || ok != c.ok {
			t.Errorf("splitID(%q) = (%d, %q, %v), want (%d, %q, %v)",
				c.id, idx, local, ok, c.idx, c.local, c.ok)
		}
	}
}

func TestRewriteID(t *testing.T) {
	out := rewriteID([]byte(`{"id":"j3","state":"done"}`), 2)
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.Unmarshal(out, &st); err != nil {
		t.Fatalf("rewritten body unparseable: %v", err)
	}
	if st.ID != "r2.j3" || st.State != "done" {
		t.Errorf("rewritten status = %+v", st)
	}
	// Non-JSON bodies pass through untouched.
	if got := rewriteID([]byte("not json"), 0); string(got) != "not json" {
		t.Errorf("non-JSON body mutated: %q", got)
	}
}

// TestFrontFailover proves POST-commit safety of the ring walk: the
// hash owner answers 503 (provably not admitted), the front marks it
// down and the next replica in the sequence gets the job.
func TestFrontFailover(t *testing.T) {
	accepted := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Location", "/api/v1/jobs/j1")
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"id":"j1","state":"queued"}`)
	}))
	defer accepted.Close()
	refusing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer refusing.Close()

	f := NewFront(FrontConfig{Replicas: []string{accepted.URL, refusing.URL}})

	// Find a spec whose hash the refusing replica owns, so the submit
	// must fail over.
	var spec jobspec.Spec
	for seed := uint64(1); ; seed++ {
		spec = jobspec.Solo("SAD").WithSeed(seed)
		spec.Normalize()
		if f.ring.Owner(spec.Hash()) == refusing.URL {
			break
		}
	}

	rr := httptest.NewRecorder()
	f.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/api/v1/jobs",
		bytes.NewReader(submitBody(t, spec))))
	if rr.Code != http.StatusAccepted {
		t.Fatalf("status = %d, body %s", rr.Code, rr.Body)
	}
	wantIdx := f.replicaIndex(accepted.URL)
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("r%d.j1", wantIdx); st.ID != want {
		t.Errorf("job id = %q, want %q", st.ID, want)
	}
	if loc := rr.Header().Get("Location"); loc != fmt.Sprintf("/api/v1/jobs/r%d.j1", wantIdx) {
		t.Errorf("Location = %q", loc)
	}
	if got := f.reg.Counter(MetricFrontFailovers).Value(); got != 1 {
		t.Errorf("failovers = %d, want 1", got)
	}
	if f.mem.IsAlive(refusing.URL) {
		t.Error("refusing replica not marked down")
	}
}

// TestFrontCacheHitSubmit proves a wait=1 duplicate is served straight
// from the owner's peer cache without proxying the job anywhere.
func TestFrontCacheHitSubmit(t *testing.T) {
	proxied := 0
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		proxied++
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer replica.Close()

	payload := []byte(`{"summary":{"throughput":1}}`)
	f := NewFront(FrontConfig{
		Replicas: []string{replica.URL},
		Fetch: func(_ context.Context, member, hash string) ([]byte, error) {
			return payload, nil
		},
	})

	spec := jobspec.Solo("SAD").WithSeed(42)
	rr := httptest.NewRecorder()
	f.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/api/v1/jobs?wait=1",
		bytes.NewReader(submitBody(t, spec))))
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rr.Code, rr.Body)
	}
	var st struct {
		ID      string          `json:"id"`
		State   string          `json:"state"`
		Deduped bool            `json:"deduped"`
		Result  json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	norm := spec
	norm.Normalize()
	if st.ID != "cache."+norm.Hash() || st.State != "done" || !st.Deduped {
		t.Errorf("cache-served status = %+v", st)
	}
	if !bytes.Equal(st.Result, payload) {
		t.Errorf("result %s not byte-identical to cached payload %s", st.Result, payload)
	}
	if proxied != 0 {
		t.Errorf("replica was proxied %d times for a cache hit", proxied)
	}
	if got := f.reg.Counter(MetricFrontCacheHits).Value(); got != 1 {
		t.Errorf("cache hits = %d, want 1", got)
	}

	// The synthetic ID stays resolvable: status and result reads answer
	// from the cache too.
	rr = httptest.NewRecorder()
	f.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/api/v1/jobs/"+st.ID+"/result", nil))
	if rr.Code != http.StatusOK || !bytes.Equal(rr.Body.Bytes(), payload) {
		t.Errorf("cache id result read: %d %s", rr.Code, rr.Body)
	}
	if strings.Contains(rr.Body.String(), "error") {
		t.Errorf("unexpected error body: %s", rr.Body)
	}

	// A misspelled field or an invalid value is rejected as a replica
	// rejects it, even though the spec it names is cached (the hash
	// leaves out timeout_ms).
	for name, body := range map[string]string{
		"misspelled field": `{"kind":"solo","bench":"SAD","seed":42,"windw_us":50}`,
		"negative timeout": `{"kind":"solo","bench":"SAD","seed":42,"timeout_ms":-1}`,
	} {
		rr = httptest.NewRecorder()
		f.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/api/v1/jobs?wait=1",
			strings.NewReader(body)))
		if rr.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body %s)", name, rr.Code, rr.Body)
		}
		if got := f.reg.Counter(MetricFrontCacheHits).Value(); got != 1 || proxied != 0 {
			t.Errorf("%s reached the cache or a replica: cache hits %d, proxied %d", name, got, proxied)
		}
	}
}

// TestFrontProbeOnceBoundsHungMember: a replica that accepts the
// connection but never answers /healthz costs its probe a bounded wait.
// The round then marks it down and still reaches the member sorted
// after it, reviving that one.
func TestFrontProbeOnceBoundsHungMember(t *testing.T) {
	release := make(chan struct{})
	var hungHost atomic.Value
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if host, _ := hungHost.Load().(string); r.Host == host {
			select {
			case <-release:
			case <-r.Context().Done():
			}
			return
		}
		fmt.Fprintln(w, "ok")
	})
	a, b := httptest.NewServer(h), httptest.NewServer(h)
	defer a.Close()
	defer b.Close()
	defer close(release) // runs first, so Close does not wait on the hung handler
	urls := []string{a.URL, b.URL}
	sort.Strings(urls)
	hung, healthy := urls[0], urls[1]
	hungHost.Store(strings.TrimPrefix(hung, "http://"))

	f := NewFront(FrontConfig{Replicas: urls})
	f.Membership().MarkDown(healthy)
	done := make(chan int, 1)
	go func() { done <- f.ProbeOnce(context.Background()) }()
	const deadline = 5 * time.Second
	select {
	case down := <-done:
		if down != 1 {
			t.Errorf("ProbeOnce reported %d down, want 1", down)
		}
	case <-time.After(deadline):
		t.Fatalf("ProbeOnce still blocked on a hung member after %v", deadline)
	}
	if f.Membership().IsAlive(hung) {
		t.Error("hung member still alive after the probe round")
	}
	if !f.Membership().IsAlive(healthy) {
		t.Error("healthy member sorted after the hung one was not revived")
	}
}
