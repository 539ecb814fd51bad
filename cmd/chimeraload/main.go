// Command chimeraload is a load generator for chimerad with both
// closed-loop and open-loop arrival processes.
//
// Closed loop (-arrival closed, the default): -c concurrent clients
// each submit a job, wait for it to finish, and immediately submit the
// next, until -n jobs have completed — the classic saturation probe.
//
// Open loop (-arrival poisson | bursty): jobs arrive on a schedule
// that does not depend on the server's speed, which is how production
// traffic behaves. Inter-arrival gaps are drawn from the repository's
// deterministic RNG (internal/rng), so the same -seed and -rate always
// produce the same arrival schedule:
//
//   - poisson: independent exponential gaps at -rate jobs/sec.
//   - bursty:  a modulated Poisson process alternating 20-job bursts at
//     5× -rate with 20-job lulls at ⅓ -rate — same mean load, spiky
//     shape.
//
// Each open-loop job is dispatched at its absolute due time, so timer
// overshoot never accumulates; the report prints how late the
// generator ran (median and max).
//
// With -record FILE, the generator appends every job's terminal
// outcome to a versioned JSONL workload trace (jobspec.TraceRecord,
// docs/jobs.md) whose arrival offsets are the scheduled (deterministic)
// arrival times — the exact format chimerad -record emits and
// chimerareplay consumes, so a synthetic open-loop campaign can be
// re-driven bit-for-bit later.
//
// After the run it prints a latency table (p50/p95/p99, mean, max) and
// a throughput summary.
//
// Usage:
//
//	chimeraload -addr HOST:PORT [-addr HOST:PORT ...] [flags]
//
// Flags:
//
//	-addr HOST:PORT  chimerad or chimerafront address; repeat the flag
//	                 to spread jobs round-robin over several targets
//	                 (direct replicas, or several fronts) — the report
//	                 then includes a per-target latency table
//	                 (at least one required)
//	-n N             total jobs to run, at least 1 (default 200)
//	-c N             closed loop: concurrent clients (default 8)
//	-arrival A       arrival process: closed, poisson or bursty
//	                 (default closed)
//	-rate R          open loop: mean arrival rate in jobs/sec
//	                 (default 50)
//	-seed N          open loop: arrival-process seed (default 1)
//	-record FILE     append a JSONL workload trace of every job
//	-kind K          scenario kind: solo, periodic or pair (default solo)
//	-bench B         benchmark (default SAD)
//	-bench-b B       second benchmark for pair jobs (default MUM)
//	-window-us N     simulated µs per job (default 100)
//	-policy P        preemption policy for periodic/pair jobs
//	                 ("" = server default)
//	-policies P,...  policy shootout: run the identical campaign once per
//	                 policy (same arrival schedule and seeds) and print a
//	                 per-policy comparison of p99 latency, shed rate and
//	                 deadline-miss rate
//	-deadline-ms N   per-job SLO deadline; the server sheds hopeless jobs
//	                 with 429 and fails jobs that overrun (default 0 = none)
//	-estimator E     runtime estimator: oracle or online ("" = oracle)
//	-distinct        vary each job's seed so every job simulates
//	                 (default true; -distinct=false measures the cache)
//
// Every job uses seed base+i when -distinct, so the server's result
// cache cannot collapse the run; with -distinct=false all jobs share
// one identity and the run measures dedup latency instead.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"chimera/internal/jobspec"
	"chimera/internal/metrics"
	"chimera/internal/rng"
	"chimera/internal/server"
	"chimera/internal/server/client"
)

// addrList collects repeated -addr flags.
type addrList []string

// String renders the accumulated list (flag.Value contract).
func (a *addrList) String() string { return strings.Join(*a, ",") }

// Set appends one -addr occurrence (flag.Value contract).
func (a *addrList) Set(v string) error {
	if v == "" {
		return fmt.Errorf("empty address")
	}
	*a = append(*a, v)
	return nil
}

// baseURL accepts both the documented HOST:PORT form and a full
// http(s):// base URL (the form chimerad/chimerafront print and the
// fleet docs use for replica lists).
func baseURL(addr string) string {
	if strings.Contains(addr, "://") {
		return addr
	}
	return "http://" + addr
}

// options carries the flag-settable knobs into the run functions.
type options struct {
	addrs      addrList
	n          int
	conc       int
	arrival    string
	rate       float64
	seed       uint64
	record     string
	kind       string
	bench      string
	benchB     string
	windowUs   float64
	policy     string
	policies   string
	deadlineMs int64
	estimator  string
	distinct   bool
}

func main() {
	var o options
	flag.Var(&o.addrs, "addr", "chimerad or chimerafront address (host:port or http://base URL); repeatable for round-robin fan-out")
	flag.IntVar(&o.n, "n", 200, "total jobs to run")
	flag.IntVar(&o.conc, "c", 8, "closed loop: concurrent clients")
	flag.StringVar(&o.arrival, "arrival", "closed", "arrival process: closed, poisson or bursty")
	flag.Float64Var(&o.rate, "rate", 50, "open loop: mean arrival rate in jobs/sec")
	flag.Uint64Var(&o.seed, "seed", 1, "open loop: arrival-process seed")
	flag.StringVar(&o.record, "record", "", "append a JSONL workload trace to FILE")
	flag.StringVar(&o.kind, "kind", jobspec.KindSolo, "scenario kind (solo, periodic, pair)")
	flag.StringVar(&o.bench, "bench", "SAD", "benchmark")
	flag.StringVar(&o.benchB, "bench-b", "MUM", "second benchmark for pair jobs")
	flag.Float64Var(&o.windowUs, "window-us", 100, "simulated µs per job")
	flag.StringVar(&o.policy, "policy", "", "preemption policy for periodic/pair jobs (empty = server default)")
	flag.StringVar(&o.policies, "policies", "", "comma-separated policies: run the campaign once per policy and compare")
	flag.Int64Var(&o.deadlineMs, "deadline-ms", 0, "per-job SLO deadline in milliseconds (0 = none)")
	flag.StringVar(&o.estimator, "estimator", "", "runtime estimator: oracle or online (empty = oracle)")
	flag.BoolVar(&o.distinct, "distinct", true, "vary each job's seed so every job simulates")
	flag.Parse()

	if len(o.addrs) == 0 {
		fmt.Fprintln(os.Stderr, "chimeraload: at least one -addr is required")
		os.Exit(2)
	}
	if o.n < 1 {
		fmt.Fprintf(os.Stderr, "chimeraload: -n must be at least 1, got %d\n", o.n)
		os.Exit(2)
	}
	if err := run(o); err != nil {
		fmt.Fprintf(os.Stderr, "chimeraload: %v\n", err)
		os.Exit(1)
	}
}

// specFor builds job i's spec via the jobspec builders — the same
// construction path every production caller uses.
func (o *options) specFor(i int64) jobspec.Spec {
	var spec jobspec.Spec
	switch o.kind {
	case jobspec.KindPeriodic:
		spec = jobspec.Periodic(o.bench, o.policy)
	case jobspec.KindPair:
		spec = jobspec.Pair(o.bench, o.benchB, o.policy)
	default:
		spec = jobspec.Solo(o.bench)
		spec.Kind = o.kind // surface an unknown -kind as a server-side 400
	}
	spec = spec.WithWindowUs(o.windowUs).WithSeed(1)
	if o.deadlineMs > 0 {
		spec = spec.WithDeadlineMs(o.deadlineMs)
	}
	if o.estimator != "" {
		spec = spec.WithEstimator(o.estimator)
	}
	if o.distinct {
		spec = spec.WithSeed(uint64(i + 1))
	}
	return spec
}

// arrivalGaps precomputes the n deterministic inter-arrival gaps of the
// chosen open-loop process.
func arrivalGaps(process string, n int, rate float64, seed uint64) ([]time.Duration, error) {
	if rate <= 0 {
		return nil, fmt.Errorf("open-loop arrival needs -rate > 0")
	}
	src := rng.New(seed)
	// exponential draws one exponentially-distributed gap at rate r.
	exponential := func(r float64) time.Duration {
		u := src.Float64()
		return time.Duration(-math.Log(1-u) / r * float64(time.Second))
	}
	gaps := make([]time.Duration, n)
	switch process {
	case "poisson":
		for i := range gaps {
			gaps[i] = exponential(rate)
		}
	case "bursty":
		// Alternate 20-job bursts at 5× rate with 20-job lulls at ⅓
		// rate: spikier than Poisson at a comparable mean load.
		const phase = 20
		for i := range gaps {
			r := rate * 5
			if (i/phase)%2 == 1 {
				r = rate / 3
			}
			gaps[i] = exponential(r)
		}
	default:
		return nil, fmt.Errorf("unknown arrival process %q (want closed, poisson or bursty)", process)
	}
	return gaps, nil
}

// loadStats aggregates one run's outcomes across worker goroutines,
// both fleet-wide and split per -addr target.
type loadStats struct {
	hist      *metrics.Histogram
	perTarget []*metrics.Histogram
	deduped   atomic.Int64
	failed    atomic.Int64
	// shed counts submissions the server refused as hopeless against
	// their deadline (429 server/shed_hopeless); missed counts admitted
	// jobs that overran their deadline and failed. Both are expected SLO
	// outcomes, reported separately and never treated as run errors.
	shed   atomic.Int64
	missed atomic.Int64
	errMu  sync.Mutex
	err    error
	// late is each open-loop dispatch's delay past its due time,
	// appended by the dispatching goroutine only.
	late []time.Duration
}

func newLoadStats(targets int) *loadStats {
	// Service latency in milliseconds through the repo's own
	// fixed-bucket histogram (the same estimator behind the engine's
	// latency exhibits).
	s := &loadStats{
		hist: metrics.NewHistogram("load/latency_ms", "ms", metrics.ExpBuckets(0.25, 1.5, 32)),
	}
	for i := 0; i < targets; i++ {
		s.perTarget = append(s.perTarget,
			metrics.NewHistogram(fmt.Sprintf("load/latency_ms_t%d", i), "ms", metrics.ExpBuckets(0.25, 1.5, 32)))
	}
	return s
}

// note records one job outcome (thread-safe). target is the index into
// the -addr list the job was submitted to.
func (s *loadStats) note(i int64, target int, st server.JobStatus, lat time.Duration, err error) {
	switch {
	case isShed(err):
		s.shed.Add(1)
	case err != nil:
		s.failed.Add(1)
		s.setErr(fmt.Errorf("job %d: %w", i, err))
	case st.State == server.StateFailed && strings.Contains(st.Error, "deadline"):
		s.missed.Add(1)
	case st.State == server.StateDone:
		if st.Deduped {
			s.deduped.Add(1)
		}
		ms := float64(lat) / float64(time.Millisecond)
		s.hist.Observe(ms)
		s.perTarget[target].Observe(ms)
	default:
		s.failed.Add(1)
		s.setErr(fmt.Errorf("job %d finished %s: %s", i, st.State, st.Error))
	}
}

// lateness returns the median and maximum open-loop dispatch lateness
// in milliseconds, or ok=false for a closed-loop run.
func (s *loadStats) lateness() (p50, worst float64, ok bool) {
	n := len(s.late)
	if n == 0 {
		return 0, 0, false
	}
	l := slices.Clone(s.late)
	slices.Sort(l)
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return (ms(l[(n-1)/2]) + ms(l[n/2])) / 2, ms(l[n-1]), true
}

func (s *loadStats) setErr(err error) {
	s.errMu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.errMu.Unlock()
}

// isShed recognizes the server's shed-on-hopeless rejection: a 429
// whose message carries the distinct shed marker (queue-full 429s say
// "queue full" and are retried by the client instead).
func isShed(err error) bool {
	var apiErr *client.APIError
	return errors.As(err, &apiErr) &&
		apiErr.StatusCode == http.StatusTooManyRequests &&
		strings.Contains(apiErr.Message, "shed")
}

// run drives the selected loop — once, or once per -policies entry —
// and prints the report.
func run(o options) error {
	if o.conc < 1 {
		o.conc = 1
	}
	if o.conc > o.n {
		o.conc = o.n
	}
	clients := make([]*client.Client, len(o.addrs))
	for i, a := range o.addrs {
		// With a deadline, submissions are single-attempt: the client's
		// default 429 retry loop would re-offer a shed job against the
		// same hopeless deadline (the server deliberately sends no
		// Retry-After) and mask the shed as a slow success.
		if o.deadlineMs > 0 {
			clients[i] = client.New(baseURL(a), client.WithMaxAttempts(1))
		} else {
			clients[i] = client.New(baseURL(a))
		}
	}

	var rec *jobspec.TraceWriter
	if o.record != "" {
		f, err := os.OpenFile(o.record, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("open record file: %w", err)
		}
		defer f.Close()
		rec = jobspec.NewTraceWriter(f)
	}

	if o.policies == "" {
		stats, elapsed, err := campaign(o, clients, rec)
		if err != nil {
			return err
		}
		return report(o, stats, elapsed, rec)
	}
	return shootout(o, clients, rec)
}

// campaign runs one full arrival campaign with the current options and
// returns its aggregated stats.
func campaign(o options, clients []*client.Client, rec *jobspec.TraceWriter) (*loadStats, time.Duration, error) {
	stats := newLoadStats(len(clients))
	start := time.Now()
	var err error
	if o.arrival == "closed" {
		err = runClosed(o, clients, stats, rec, start)
	} else {
		err = runOpen(o, clients, stats, rec, start)
	}
	if err != nil {
		return nil, 0, err
	}
	return stats, time.Since(start), nil
}

// shootout runs the identical campaign once per -policies entry — same
// arrival process, seeds and deadlines, so the only variable is the
// preemption policy — and prints the per-policy comparison of tail
// latency, shed rate and deadline-miss rate.
func shootout(o options, clients []*client.Client, rec *jobspec.TraceWriter) error {
	policies := strings.Split(o.policies, ",")
	fmt.Printf("chimeraload: policy shootout: %d jobs/policy (%s %s, %gµs window, %s arrivals, deadline %dms)\n",
		o.n, o.kind, o.bench, o.windowUs, o.arrival, o.deadlineMs)
	fmt.Println("  policy    done   shed   missed  failed  miss-rate  p50(ms)    p99(ms)    late p50/max(ms)")
	var firstErr error
	for _, p := range policies {
		po := o
		po.policy = strings.TrimSpace(p)
		stats, _, err := campaign(po, clients, rec)
		if err != nil {
			return err
		}
		shed, missed := stats.shed.Load(), stats.missed.Load()
		missRate := float64(shed+missed) / float64(o.n)
		late := "-"
		if p50, worst, ok := stats.lateness(); ok {
			late = fmt.Sprintf("%.3f/%.3f", p50, worst)
		}
		fmt.Printf("  %-8s %6d %6d %8d %7d %9.1f%% %-10.3f %-10.3f %s\n",
			po.policy, stats.hist.Count(), shed, missed, stats.failed.Load(),
			100*missRate, stats.hist.Quantile(0.50), stats.hist.Quantile(0.99), late)
		if firstErr == nil && stats.err != nil {
			firstErr = fmt.Errorf("policy %s: %w", po.policy, stats.err)
		}
	}
	if rec != nil {
		fmt.Printf("  recorded %d trace records to %s\n", rec.Count(), o.record)
	}
	return firstErr
}

// report prints the single-campaign summary.
func report(o options, stats *loadStats, elapsed time.Duration, rec *jobspec.TraceWriter) error {
	completed := stats.hist.Count()
	fmt.Printf("chimeraload: %d jobs (%s %s, %gµs window, %s arrivals) in %v\n",
		o.n, o.kind, o.bench, o.windowUs, o.arrival, elapsed.Round(time.Millisecond))
	fmt.Printf("  completed: %d   failed: %d   deduped: %d   throughput: %.1f jobs/s\n",
		completed, stats.failed.Load(), stats.deduped.Load(), float64(completed)/elapsed.Seconds())
	if o.deadlineMs > 0 {
		fmt.Printf("  shed: %d   deadline-missed: %d\n", stats.shed.Load(), stats.missed.Load())
	}
	if p50, worst, ok := stats.lateness(); ok {
		fmt.Printf("  generator: late p50 %.3f ms, max %.3f ms\n", p50, worst)
	}
	if completed > 0 {
		fmt.Println("  latency(ms)  p50        p95        p99        mean       max")
		fmt.Printf("               %-10.3f %-10.3f %-10.3f %-10.3f %-10.3f\n",
			stats.hist.Quantile(0.50), stats.hist.Quantile(0.95), stats.hist.Quantile(0.99),
			stats.hist.Mean(), stats.hist.Max())
	}
	if len(o.addrs) > 1 {
		fmt.Println("  per-target latency(ms)           p50        p95        p99        jobs")
		for t, a := range o.addrs {
			h := stats.perTarget[t]
			fmt.Printf("    %-28s %-10.3f %-10.3f %-10.3f %d\n",
				a, h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.Count())
		}
	}
	if rec != nil {
		fmt.Printf("  recorded %d trace records to %s\n", rec.Count(), o.record)
	}
	if stats.err != nil {
		return stats.err
	}
	if completed == 0 && stats.shed.Load() == 0 && stats.missed.Load() == 0 {
		return fmt.Errorf("no job completed")
	}
	return nil
}

// record appends one terminal outcome to the workload trace.
func record(rec *jobspec.TraceWriter, i int64, arrival time.Duration, spec jobspec.Spec, st server.JobStatus, err error) {
	if rec == nil {
		return
	}
	spec.Normalize()
	tr := jobspec.TraceRecord{
		Seq:       i + 1,
		ArrivalMs: float64(arrival) / float64(time.Millisecond),
		Spec:      spec,
	}
	switch {
	case err != nil:
		tr.Outcome = string(server.StateFailed)
		tr.Error = err.Error()
	default:
		tr.Outcome = string(st.State)
		tr.Deduped = st.Deduped
		tr.Error = st.Error
	}
	if werr := rec.Append(tr); werr != nil {
		fmt.Fprintf(os.Stderr, "chimeraload: trace write: %v\n", werr)
	}
}

// runClosed is the saturation probe: conc clients, each re-submitting
// as soon as its previous job finishes. Job i goes to target i mod
// len(clients), so the round-robin split is deterministic.
func runClosed(o options, clients []*client.Client, stats *loadStats, rec *jobspec.TraceWriter, start time.Time) error {
	ctx := context.Background()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < o.conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(o.n) {
					return
				}
				target := int(i) % len(clients)
				spec := o.specFor(i)
				arrival := time.Since(start)
				t0 := time.Now()
				st, err := clients[target].SubmitWait(ctx, spec)
				stats.note(i, target, st, time.Since(t0), err)
				record(rec, i, arrival, spec, st, err)
			}
		}()
	}
	wg.Wait()
	return nil
}

// runOpen fires jobs on the precomputed deterministic arrival schedule
// regardless of how fast the server keeps up, and waits for the
// stragglers at the end. Sleeping to each job's absolute due time,
// rather than for each gap after the previous dispatch, keeps timer
// overshoot from accumulating.
func runOpen(o options, clients []*client.Client, stats *loadStats, rec *jobspec.TraceWriter, start time.Time) error {
	gaps, err := arrivalGaps(o.arrival, o.n, o.rate, o.seed)
	if err != nil {
		return err
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	var arrival time.Duration
	for i := 0; i < o.n; i++ {
		arrival += gaps[i]
		due := start.Add(arrival)
		time.Sleep(time.Until(due))
		stats.late = append(stats.late, time.Since(due))
		wg.Add(1)
		go func(i int64, arrival time.Duration) {
			defer wg.Done()
			target := int(i) % len(clients)
			spec := o.specFor(i)
			t0 := time.Now()
			st, err := clients[target].SubmitWait(ctx, spec)
			stats.note(i, target, st, time.Since(t0), err)
			record(rec, i, arrival, spec, st, err)
		}(int64(i), arrival)
	}
	wg.Wait()
	return nil
}
