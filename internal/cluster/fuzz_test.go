package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzFrontSubmit drives arbitrary submissions through a Front over
// one replica that answers every POST with a finished status, while the
// peer cache serves a fuzzed payload, misses or fails in transport. It
// checks that the front never panics, never answers 5xx while the
// replica answers, never answers 200 with a result that is not a
// JobResult, never memoizes such a payload, and answers a repeat of a
// peer-served submission with the first reply's bytes.
func FuzzFrontSubmit(f *testing.F) {
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, routedReply)
	}))
	f.Cleanup(replica.Close)

	// The seed corpus (testdata/fuzz/FuzzFrontSubmit) holds a valid
	// spec, a trace spec, an async submission, a garbage payload and an
	// empty payload.
	f.Fuzz(func(t *testing.T, body string, wait bool, mode uint8, payload []byte) {
		front := NewFront(FrontConfig{
			Replicas: []string{replica.URL},
			Fetch: func(context.Context, string, string) ([]byte, error) {
				switch mode % 3 {
				case 0:
					return payload, nil
				case 1:
					return nil, ErrCacheMiss
				default:
					return nil, errors.New("fuzz: connection reset")
				}
			},
		})
		target := "/api/v1/jobs"
		if wait {
			target += "?wait=1"
		}
		submit := func() (*httptest.ResponseRecorder, string) {
			rr := httptest.NewRecorder()
			front.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodPost, target, strings.NewReader(body)))
			if rr.Code >= 500 {
				t.Fatalf("status %d while the replica answers: %s", rr.Code, rr.Body)
			}
			if rr.Code != http.StatusOK {
				return rr, ""
			}
			var st struct {
				ID     string          `json:"id"`
				Result json.RawMessage `json:"result"`
			}
			if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil || !ValidPayload(st.Result) {
				t.Fatalf("200 without a JobResult (%v): %q", err, rr.Body)
			}
			return rr, st.ID
		}

		first, id := submit()
		second, _ := submit()
		if strings.HasPrefix(id, "cache.") && !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
			t.Fatalf("repeat of a peer-served submission differs:\n%s\n%s", first.Body, second.Body)
		}
		front.results.mu.Lock()
		defer front.results.mu.Unlock()
		for el := front.results.lru.Front(); el != nil; el = el.Next() {
			if e := el.Value.(*resultEntry); !ValidPayload(e.payload) {
				t.Fatalf("memo holds %q under %s, which is not a JobResult", e.payload, e.hash)
			}
		}
	})
}
