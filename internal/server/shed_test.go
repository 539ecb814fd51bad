// Admission-shed coverage: a deadlined submission whose predicted
// completion exceeds deadline_ms is refused up front with 429 (no
// Retry-After — the deadline is the client's, so a retry against the
// same backlog stays hopeless) and counted in server/shed_hopeless,
// while deadline-free work and feasible deadlines admit normally. The
// deadline policies (EDF, SLO) and both estimators are exercised
// through the same HTTP surface. See docs/scheduling.md.
package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"chimera/internal/jobspec"
)

func TestShedHopeless(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})

	// Warm the service-time EWMA with one real completed job: the shed
	// predicate deliberately admits everything until it has evidence.
	st, code := postJob(t, ts, JobSpec{Kind: jobspec.KindSolo, Bench: "SAD", WindowUs: 100, DeadlineMs: 60_000}, "")
	if code != http.StatusAccepted {
		t.Fatalf("warm submit: got %d, want 202", code)
	}
	if fin := await(t, ts, st.ID); fin.State != StateDone {
		t.Fatalf("warm job finished %s (%s)", fin.State, fin.Error)
	}
	s.mu.Lock()
	warmed := s.ewmaServiceMs
	// Pin the estimate so the shed decision is deterministic regardless
	// of how fast the warm job actually ran: at 10s per job, a 5s
	// deadline is hopeless even on an empty queue.
	s.ewmaServiceMs = 10_000
	s.mu.Unlock()
	if warmed <= 0 {
		t.Fatalf("completed job did not warm the service-time estimate (%v)", warmed)
	}

	body, err := json.Marshal(JobSpec{Kind: jobspec.KindSolo, Bench: "SAD", WindowUs: 100, DeadlineMs: 5_000})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("hopeless submit: got %d (%s), want 429", resp.StatusCode, msg)
	}
	if resp.Header.Get("Retry-After") != "" {
		t.Error("shed response carries Retry-After — clients would retry a hopeless deadline")
	}
	if !strings.Contains(string(msg), "shed") {
		t.Errorf("shed response body %q does not say shed", msg)
	}

	// Deadline-free submissions are never shed, whatever the estimate;
	// neither is a deadline the pinned estimate fits inside.
	if _, code := postJob(t, ts, shortSpec(), ""); code != http.StatusAccepted {
		t.Fatalf("deadline-free submit after shed: got %d, want 202", code)
	}
	ok, code := postJob(t, ts, JobSpec{Kind: jobspec.KindSolo, Bench: "SAD", WindowUs: 100, DeadlineMs: 60_000}, "")
	if code != http.StatusAccepted {
		t.Fatalf("feasible-deadline submit: got %d, want 202", code)
	}
	await(t, ts, ok.ID)

	// Exactly one shed, counted apart from queue-full rejections.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mbody), "chimera_server_shed_hopeless 1") {
		t.Error("/metrics does not report chimera_server_shed_hopeless 1")
	}
	if strings.Contains(string(mbody), "chimera_server_jobs_rejected 1") {
		t.Error("shed was double-counted as a queue-full rejection")
	}
}

// TestDeadlinePoliciesServed proves the EDF and SLO scheduling policies
// and both estimators are selectable end to end through chimerad's
// submit path, not just inside the engine.
func TestDeadlinePoliciesServed(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	for _, spec := range []JobSpec{
		{Kind: jobspec.KindPeriodic, Bench: "SAD", Policy: jobspec.PolicyEDF, WindowUs: 300, ConstraintUs: 15, DeadlineMs: 60_000, Estimator: jobspec.EstimatorOnline},
		{Kind: jobspec.KindPeriodic, Bench: "SAD", Policy: jobspec.PolicySLO, WindowUs: 300, ConstraintUs: 15, DeadlineMs: 60_000, Estimator: jobspec.EstimatorOracle},
	} {
		st, code := postJob(t, ts, spec, "")
		if code != http.StatusAccepted {
			t.Fatalf("%s submit: got %d, want 202", spec.Policy, code)
		}
		fin := await(t, ts, st.ID)
		if fin.State != StateDone {
			t.Fatalf("%s job finished %s (%s), want done", spec.Policy, fin.State, fin.Error)
		}
		if fin.Spec.Policy != spec.Policy || fin.Spec.Estimator != spec.Estimator || fin.Spec.DeadlineMs != spec.DeadlineMs {
			t.Errorf("%s spec mangled in echo: %+v", spec.Policy, fin.Spec)
		}
		if len(fin.Result) == 0 {
			t.Errorf("%s job produced no result payload", spec.Policy)
		}
	}
}
