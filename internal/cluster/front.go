package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"chimera/internal/jobspec"
	"chimera/internal/kernels"
	"chimera/internal/metrics"
)

// Metric names the front publishes on its /metrics, as package-level
// constants (enforced by chimeravet's schemaconst analyzer) so
// docs/cluster.md cannot silently drift from the code.
const (
	// MetricFrontRouted counts submissions proxied to a replica.
	MetricFrontRouted = "front/jobs_routed"
	// MetricFrontShed counts submissions rejected by the fleet-wide
	// inflight cap (429 + Retry-After).
	MetricFrontShed = "front/shed"
	// MetricFrontFailovers counts submissions that skipped at least one
	// dead or refusing replica before landing.
	MetricFrontFailovers = "front/failovers"
	// MetricFrontCacheHits counts wait=1 submissions served straight
	// from a replica's peer cache or the front's memo without proxying
	// the job.
	MetricFrontCacheHits = "front/cache_hits"
	// MetricFrontMemoHits counts the wait=1 submissions of
	// MetricFrontCacheHits that the front's own result memo answered,
	// touching no replica.
	MetricFrontMemoHits = "front/memo_hits"
	// MetricFrontNoReplica counts requests refused because no replica
	// accepted them (503).
	MetricFrontNoReplica = "front/no_replica"
	// MetricFrontProxyErrors counts proxied requests that failed in
	// transport after the job question was already settled (reads).
	MetricFrontProxyErrors = "front/proxy_errors"
)

// FrontConfig parameterizes a Front.
type FrontConfig struct {
	// Replicas is the static seed list of replica base URLs
	// ("http://host:port"). Order is irrelevant — the list is
	// canonicalized exactly like the ring's.
	Replicas []string
	// MaxInflight caps concurrently-admitted submissions fleet-wide;
	// beyond it the front sheds with 429 + Retry-After (default 256).
	MaxInflight int
	// Fetch overrides the peer-cache fetch (default: HTTP over
	// http.DefaultTransport). Tests inject fakes.
	Fetch FetchFunc
}

// probeTimeout bounds one member's health probe. Probes run one member
// after another, so a replica that accepts connections but never
// answers would otherwise hold up the verdicts on every member sorted
// after it.
const probeTimeout = time.Second

// Front is the fleet's front proxy: it admits jobs fleet-wide (load
// shedding past MaxInflight), deduplicates finished work through its
// own result memo and the replicas' peer caches (reusing jobspec
// content hashes), and routes every submission to the replica owning
// its hash — failing over along the ring when the owner is dead or
// refusing. Create with NewFront, mount Handler on an http.Server, and
// drive ProbeOnce on the desired health cadence.
//
// Job IDs acquire a replica prefix on the way through ("r2.j15" is job
// j15 on the third replica of the canonical list), so status, result,
// trace and cancel requests route back to the replica that owns the
// job. IDs of the form "cache.<hash>" denote results served directly
// from the memo or a peer cache; their status and result routes answer
// from there as well.
type Front struct {
	cfg      FrontConfig
	ring     *Ring
	mem      *Membership
	fetch    FetchFunc
	reg      *metrics.Registry
	inflight atomic.Int64
	// results memoizes finished payloads a peer served, so a repeat
	// costs no replica round trip.
	results *Results
	// catalog is the one chimerad validates submissions against, so the
	// front rejects exactly the specs a replica would.
	catalog *kernels.Catalog

	cRouted    *metrics.Counter
	cShed      *metrics.Counter
	cFailovers *metrics.Counter
	cCacheHits *metrics.Counter
	cMemoHits  *metrics.Counter
	cNoReplica *metrics.Counter
	cProxyErrs *metrics.Counter
}

// NewFront builds a front proxy over the replica seed list, on the
// DefaultVNodes ring every replica builds from the same list.
func NewFront(cfg FrontConfig) *Front {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 256
	}
	reg := metrics.NewRegistry()
	f := &Front{
		cfg:     cfg,
		ring:    NewRing(cfg.Replicas, 0),
		mem:     NewMembership(cfg.Replicas),
		reg:     reg,
		results: NewResults(),
		catalog: kernels.Load(),

		cRouted:    reg.Counter(MetricFrontRouted),
		cShed:      reg.Counter(MetricFrontShed),
		cFailovers: reg.Counter(MetricFrontFailovers),
		cCacheHits: reg.Counter(MetricFrontCacheHits),
		cMemoHits:  reg.Counter(MetricFrontMemoHits),
		cNoReplica: reg.Counter(MetricFrontNoReplica),
		cProxyErrs: reg.Counter(MetricFrontProxyErrors),
	}
	f.fetch = cfg.Fetch
	if f.fetch == nil {
		f.fetch = NewHTTPFetch(http.DefaultClient)
	}
	return f
}

// Registry exposes the metrics registry the front reports into.
func (f *Front) Registry() *metrics.Registry { return f.reg }

// Membership exposes the front's health view (tests and the probe
// loop in cmd/chimerafront drive it).
func (f *Front) Membership() *Membership { return f.mem }

// Ring exposes the front's routing ring.
func (f *Front) Ring() *Ring { return f.ring }

// ProbeOnce runs one health round over the replicas (a GET on each
// /healthz, each bounded by probeTimeout) and returns the number
// observed down.
func (f *Front) ProbeOnce(ctx context.Context) int {
	return f.mem.ProbeOnce(ctx, func(ctx context.Context, member string) error {
		ctx, cancel := context.WithTimeout(ctx, probeTimeout)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, member+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		drainResponse(resp)
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("healthz status %d", resp.StatusCode)
		}
		return nil
	})
}

// Handler returns the front's HTTP routes — the same public surface as
// one chimerad.
func (f *Front) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", f.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", f.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", f.handleJob)
	mux.HandleFunc("DELETE /api/v1/jobs/{id}", f.handleJob)
	mux.HandleFunc("GET /api/v1/jobs/{id}/result", f.handleJob)
	mux.HandleFunc("GET /api/v1/jobs/{id}/trace", f.handleJob)
	mux.HandleFunc("GET /metrics", f.handleMetrics)
	mux.HandleFunc("GET /healthz", f.handleHealthz)
	return mux
}

// frontError renders the chimerad JSON error envelope.
func frontError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	fmt.Fprintf(w, "{\"error\":%q}\n", fmt.Sprintf(format, args...))
}

// targets returns the failover order for one hash: the ring sequence
// filtered to alive members. A fully-down view degrades to the
// unfiltered sequence — a stale "everyone is dead" verdict must not
// turn into fleet-wide unavailability when the replicas are fine.
func (f *Front) targets(hash string) []string {
	seq := f.ring.Sequence(hash)
	alive := make([]string, 0, len(seq))
	for _, m := range seq {
		if f.mem.IsAlive(m) {
			alive = append(alive, m)
		}
	}
	if len(alive) == 0 {
		return seq
	}
	return alive
}

// replicaIndex maps a member base URL to its index in the canonical
// (sorted) replica list, the index job-ID prefixes carry.
func (f *Front) replicaIndex(member string) int {
	for i, m := range f.ring.Members() {
		if m == member {
			return i
		}
	}
	return -1
}

// splitID parses a front job ID "r<i>.<local>" into the replica index
// and the replica-local ID.
func (f *Front) splitID(id string) (idx int, local string, ok bool) {
	rest, found := strings.CutPrefix(id, "r")
	if !found {
		return 0, "", false
	}
	num, local, found := strings.Cut(rest, ".")
	if !found || local == "" {
		return 0, "", false
	}
	idx, err := strconv.Atoi(num)
	if err != nil || idx < 0 || idx >= f.ring.Len() {
		return 0, "", false
	}
	return idx, local, true
}

// rewriteID prefixes the "id" field of a JobStatus JSON body with the
// replica index. Bodies that do not parse pass through untouched — the
// rewrite is cosmetic routing metadata, never correctness.
func rewriteID(raw []byte, idx int) []byte {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		return raw
	}
	var id string
	if err := json.Unmarshal(m["id"], &id); err != nil || id == "" {
		return raw
	}
	nid, err := json.Marshal(fmt.Sprintf("r%d.%s", idx, id))
	if err != nil {
		return raw
	}
	m["id"] = nid
	out, err := json.Marshal(m)
	if err != nil {
		return raw
	}
	return out
}

// handleSubmit admits one job fleet-wide and routes it by jobspec
// content hash: shed past MaxInflight, reject what chimerad would
// reject (jobspec.Decode, Spec.Validate), answer wait=1 submissions
// from the memo or else the owner's peer cache, then proxy along the
// hash's failover sequence. A connect error or 503 from a replica
// provably did not admit the job, so moving to the next replica
// preserves at-most-once admission.
func (f *Front) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if f.inflight.Add(1) > int64(f.cfg.MaxInflight) {
		f.inflight.Add(-1)
		f.cShed.Add(1)
		w.Header().Set("Retry-After", "1")
		frontError(w, http.StatusTooManyRequests, "front: fleet at capacity")
		return
	}
	defer f.inflight.Add(-1)

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		frontError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	spec, err := jobspec.Decode(bytes.NewReader(body))
	if err != nil {
		frontError(w, http.StatusBadRequest, "invalid job spec: %v", err)
		return
	}
	spec.Normalize()
	if err := spec.Validate(f.catalog); err != nil {
		frontError(w, http.StatusBadRequest, "invalid job spec: %v", err)
		return
	}
	hash := spec.Hash()
	// Finished work is served without occupying any replica. Only
	// wait=1 submissions can be answered this way — an async submitter
	// expects a pollable job. Traced jobs always execute (a trace is a
	// side effect the cache cannot replay), mirroring the replicas' own
	// dedup rule.
	cacheable := r.URL.Query().Get("wait") == "1" && !spec.Trace
	if cacheable {
		if payload, ok := f.results.Get(hash); ok {
			f.cCacheHits.Add(1)
			f.cMemoHits.Add(1)
			f.writeCacheStatus(w, hash, spec, payload)
			return
		}
	}

	targets := f.targets(hash)
	if len(targets) == 0 {
		f.cNoReplica.Add(1)
		frontError(w, http.StatusServiceUnavailable, "front: no replica available")
		return
	}

	// A memo miss asks the hash owner's peer cache. A result earns its
	// memo slot by being asked for again after it was computed: filling
	// from the routed reply would memoize every one-off result.
	if cacheable {
		if payload, ok := f.fetchResult(r.Context(), targets[0], hash); ok {
			f.cCacheHits.Add(1)
			f.writeCacheStatus(w, hash, spec, payload)
			return
		}
	}

	submitPath := "/api/v1/jobs"
	if r.URL.RawQuery != "" {
		submitPath += "?" + r.URL.RawQuery
	}
	for i, t := range targets {
		resp, err := f.proxy(r.Context(), http.MethodPost, t, submitPath, body)
		if err != nil {
			// The request never produced a response; for POST /jobs both
			// chimerad and this front only reach a verdict after reading
			// the body, so a transport error here is overwhelmingly a
			// dead replica. Mark it down and walk the ring.
			f.mem.MarkDown(t)
			continue
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			// Provably not admitted (draining or refusing); the replica
			// is leaving — stop routing to it.
			drainResponse(resp)
			f.mem.MarkDown(t)
			continue
		}
		f.mem.MarkUp(t)
		if i > 0 {
			f.cFailovers.Add(1)
		}
		f.cRouted.Add(1)
		f.relayStatus(w, resp, f.replicaIndex(t))
		return
	}
	f.cNoReplica.Add(1)
	frontError(w, http.StatusServiceUnavailable, "front: every replica refused the job")
}

// fetchResult asks one member's peer cache for hash (fetchPeer) and
// memoizes the result it gets, so the next request for hash touches no
// replica.
func (f *Front) fetchResult(ctx context.Context, member, hash string) ([]byte, bool) {
	payload, err := fetchPeer(ctx, f.fetch, member, hash)
	if err != nil {
		return nil, false
	}
	f.results.Put(hash, payload)
	return payload, true
}

// writeCacheStatus renders the synthesized terminal status of a
// submission served from the memo or a peer cache. The payload has
// passed ValidPayload, so it encodes as the status's result.
func (f *Front) writeCacheStatus(w http.ResponseWriter, hash string, spec jobspec.Spec, payload []byte) {
	// The envelope mirrors chimerad's JobStatus wire shape (docs/
	// server.md); cluster cannot import internal/server (the server
	// imports this package), so the mirror is deliberately minimal.
	st := map[string]any{
		"id":           "cache." + hash,
		"state":        "done",
		"spec":         spec,
		"deduped":      true,
		"result":       json.RawMessage(payload),
		"submitted_at": time.Time{},
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = json.NewEncoder(w).Encode(st)
}

// proxy issues one request to a replica and returns the raw response.
func (f *Front) proxy(ctx context.Context, method, member, pathAndQuery string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, member+pathAndQuery, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return http.DefaultClient.Do(req)
}

// relayStatus copies a replica's JobStatus response to the client,
// rewriting the job ID (and Location header) with the replica prefix.
func (f *Front) relayStatus(w http.ResponseWriter, resp *http.Response, idx int) {
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<24))
	if err != nil {
		f.cProxyErrs.Add(1)
		frontError(w, http.StatusBadGateway, "front: relay: %v", err)
		return
	}
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if loc := resp.Header.Get("Location"); loc != "" {
		if local, ok := strings.CutPrefix(loc, "/api/v1/jobs/"); ok {
			w.Header().Set("Location", fmt.Sprintf("/api/v1/jobs/r%d.%s", idx, local))
		}
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		raw = rewriteID(raw, idx)
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(raw)
}

// handleJob routes a status, result, trace or cancel request to the
// replica encoded in the job-ID prefix. "cache.<hash>" IDs answer from
// the memo or a peer cache. SSE status streams pass through verbatim
// (their frames carry the replica-local ID).
func (f *Front) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	suffix := ""
	if strings.HasSuffix(r.URL.Path, "/result") {
		suffix = "/result"
	} else if strings.HasSuffix(r.URL.Path, "/trace") {
		suffix = "/trace"
	}

	if hash, ok := strings.CutPrefix(id, "cache."); ok && r.Method == http.MethodGet {
		f.serveFromCache(w, r, hash, suffix)
		return
	}

	idx, local, ok := f.splitID(id)
	if !ok {
		frontError(w, http.StatusNotFound, "front: unknown job id %q", id)
		return
	}
	member := f.ring.Members()[idx]

	if strings.Contains(r.Header.Get("Accept"), "text/event-stream") && suffix == "" {
		f.streamThrough(w, r, member, local)
		return
	}

	resp, err := f.proxy(r.Context(), r.Method, member, "/api/v1/jobs/"+local+suffix, nil)
	if err != nil {
		f.cProxyErrs.Add(1)
		f.mem.MarkDown(member)
		frontError(w, http.StatusBadGateway, "front: replica r%d unreachable: %v", idx, err)
		return
	}
	if suffix != "" {
		// Result and trace payloads pass through byte-identical.
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "" {
			w.Header().Set("Content-Type", ct)
		}
		w.WriteHeader(resp.StatusCode)
		_, _ = io.Copy(w, resp.Body)
		return
	}
	f.relayStatus(w, resp, idx)
}

// serveFromCache answers status/result reads for "cache.<hash>" IDs
// from the memo, or else by re-consulting the hash owners.
func (f *Front) serveFromCache(w http.ResponseWriter, r *http.Request, hash, suffix string) {
	payload, ok := f.results.Get(hash)
	if !ok {
		payload, ok = f.lookupCache(r.Context(), hash)
	}
	if !ok {
		frontError(w, http.StatusNotFound, "front: no cached result for %s", hash)
		return
	}
	if suffix == "/result" {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(payload)
		return
	}
	if suffix == "/trace" {
		frontError(w, http.StatusNotFound, "front: cache-served jobs have no trace")
		return
	}
	f.writeCacheStatus(w, hash, jobspec.Spec{}, payload)
}

// lookupCache walks the hash's owner sequence until a replica holds
// the result.
func (f *Front) lookupCache(ctx context.Context, hash string) ([]byte, bool) {
	for _, t := range f.targets(hash) {
		if payload, ok := f.fetchResult(ctx, t, hash); ok {
			return payload, true
		}
	}
	return nil, false
}

// streamThrough proxies an SSE status stream verbatim.
func (f *Front) streamThrough(w http.ResponseWriter, r *http.Request, member, local string) {
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, member+"/api/v1/jobs/"+local, nil)
	if err != nil {
		frontError(w, http.StatusInternalServerError, "front: %v", err)
		return
	}
	req.Header.Set("Accept", r.Header.Get("Accept"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		f.cProxyErrs.Add(1)
		frontError(w, http.StatusBadGateway, "front: replica unreachable: %v", err)
		return
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	fl, canFlush := w.(http.Flusher)
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if canFlush {
				fl.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// handleList merges every alive replica's job list, prefixing each
// job's ID with its replica index. Replicas are visited in canonical
// order, so the merged list is deterministic given the per-replica
// lists.
func (f *Front) handleList(w http.ResponseWriter, r *http.Request) {
	merged := make([]json.RawMessage, 0, 64)
	for idx, member := range f.ring.Members() {
		if !f.mem.IsAlive(member) {
			continue
		}
		resp, err := f.proxy(r.Context(), http.MethodGet, member, "/api/v1/jobs", nil)
		if err != nil {
			f.mem.MarkDown(member)
			continue
		}
		var list []json.RawMessage
		err = json.NewDecoder(io.LimitReader(resp.Body, 1<<24)).Decode(&list)
		drainResponse(resp)
		if err != nil {
			f.cProxyErrs.Add(1)
			continue
		}
		for _, raw := range list {
			merged = append(merged, rewriteID(raw, idx))
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = json.NewEncoder(w).Encode(merged)
}

// handleMetrics serves the front's own counters in Prometheus text
// format, refreshing the inflight gauge first.
func (f *Front) handleMetrics(w http.ResponseWriter, r *http.Request) {
	f.reg.Counter(MetricFrontInflight).Set(f.inflight.Load())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = f.reg.WritePrometheus(w)
}

// MetricFrontInflight gauges submissions currently being admitted or
// proxied (refreshed on every /metrics scrape).
const MetricFrontInflight = "front/inflight"

// handleHealthz reports front liveness.
func (f *Front) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}
