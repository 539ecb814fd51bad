// Command smoke is the end-to-end test of the real binaries behind
// `make smoke`. Every scenario boots chimerad (and chimerafront) on
// random ports from one directory, drives it over the wire, and ends
// with a graceful drain: each process must announce "NAME listening on
// ADDR", and after a single SIGTERM print "NAME drained" and exit 0.
// Each scenario runs two legs:
//
//   - serve: the full client path against one chimerad — submit, poll
//     to completion, fetch the result, cancel a second job, scrape
//     /metrics, let a queued job's timeout pass behind two long jobs —
//     then a reboot with the fault plane armed (-fault-*
//     flags) where the retrying client must still get every result
//     while the resilience counters surface on /metrics.
//   - replay: record a mixed campaign through chimerad -record, then
//     replay the trace three times with chimerareplay — twice clean,
//     once with timing-only faults armed — and require byte-identical
//     reports. Any divergence means replay determinism broke.
//   - fleet: two chimerad replicas (peer result-cache armed) behind a
//     chimerafront must serve a duplicate-heavy workload as one
//     memoizing cache; then a chaos leg arms one replica's HTTP fault
//     plane, SIGTERMs it mid-run, and requires the front to fail its
//     ring range over with zero failed jobs.
//
// Any failure exits non-zero with a diagnostic.
//
// Usage:
//
//	smoke -bin DIR [scenario ...]
//
// Scenarios run in the order given; with none, serve, replay and fleet
// all run. An unknown scenario name exits 2.
//
// Flags:
//
//	-bin DIR      directory holding chimerad, chimerafront and
//	              chimerareplay (required)
//	-timeout D    budget for each scenario (default 3m)
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"chimera/internal/cluster"
	"chimera/internal/jobspec"
	"chimera/internal/server"
	"chimera/internal/server/client"
)

// scenarios maps each scenario name to its legs, run in order on one
// budget.
var scenarios = map[string][]func(ctx context.Context, dir string) error{
	"serve":  {serveClean, serveChaos},
	"replay": {recordReplay},
	"fleet":  {fleetClean, fleetChaos},
}

func main() {
	bin := flag.String("bin", "", "directory holding chimerad, chimerafront and chimerareplay (required)")
	timeout := flag.Duration("timeout", 3*time.Minute, "budget for each scenario")
	flag.Parse()
	// An absolute directory keeps "-bin ." from turning dir/chimerad
	// into a bare name that exec would look up on $PATH.
	dir, err := filepath.Abs(*bin)
	if *bin == "" || err != nil {
		fmt.Fprintln(os.Stderr, "smoke: -bin DIR is required")
		os.Exit(2)
	}
	names := flag.Args()
	if len(names) == 0 {
		names = []string{"serve", "replay", "fleet"}
	}
	for _, name := range names {
		if scenarios[name] == nil {
			fmt.Fprintf(os.Stderr, "smoke: unknown scenario %q (want serve, replay or fleet)\n", name)
			os.Exit(2)
		}
	}
	for _, name := range names {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		for _, leg := range scenarios[name] {
			if err = leg(ctx, dir); err != nil {
				break
			}
		}
		cancel()
		if err != nil {
			fmt.Fprintf(os.Stderr, "smoke %s: FAIL: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("smoke %s: PASS\n", name)
	}
}

// serveClean executes the fault-free smoke sequence against one daemon
// instance.
func serveClean(ctx context.Context, dir string) error {
	d, err := boot(ctx, dir, "chimerad", "-addr", "127.0.0.1:0", "-workers", "2", "-queue", "16", "-cache", "64")
	if err != nil {
		return err
	}
	defer d.kill()
	fmt.Printf("smoke serve: daemon up at %s\n", d.addr)

	c := client.New("http://" + d.addr)

	// Submit a small periodic job and poll it to completion. Specs are
	// built with the jobspec builders — the same construction path as
	// production callers.
	st, err := c.Submit(ctx, jobspec.Periodic("SAD", "").WithWindowUs(2000))
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	fin, err := c.Await(ctx, st.ID, 25*time.Millisecond)
	if err != nil {
		return fmt.Errorf("await %s: %w", st.ID, err)
	}
	if fin.State != server.StateDone {
		return fmt.Errorf("job %s finished %s: %s", st.ID, fin.State, fin.Error)
	}
	payload, err := c.Result(ctx, st.ID)
	if err != nil {
		return fmt.Errorf("result %s: %w", st.ID, err)
	}
	var res server.JobResult
	if err := json.Unmarshal(payload, &res); err != nil {
		return fmt.Errorf("result payload: %w", err)
	}
	if res.Periodic == nil || res.Periodic.Periods == 0 {
		return fmt.Errorf("periodic job evaluated no periods: %+v", res)
	}
	fmt.Printf("smoke serve: job %s done, %d periods, violation rate %.3f\n",
		st.ID, res.Periodic.Periods, res.Periodic.ViolationRate)

	// Cancel a long-running job and confirm the engine stopped.
	long, err := c.Submit(ctx, jobspec.Periodic("SAD", "").WithWindowUs(60e6))
	if err != nil {
		return fmt.Errorf("submit long: %w", err)
	}
	if err := c.Cancel(ctx, long.ID); err != nil {
		return fmt.Errorf("cancel %s: %w", long.ID, err)
	}
	if fin, err = c.Await(ctx, long.ID, 25*time.Millisecond); err != nil {
		return fmt.Errorf("await cancelled %s: %w", long.ID, err)
	}
	if fin.State != server.StateCanceled {
		return fmt.Errorf("cancelled job finished %s", fin.State)
	}
	fmt.Printf("smoke serve: job %s cancelled\n", long.ID)

	// Scrape metrics: the counters this run produced are exact, and the
	// executor counter and the latency histogram must be present.
	text, err := c.Metrics(ctx)
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	if err := checkCounters(text, map[string]float64{
		"chimera_server_jobs_submitted": 2,
		"chimera_server_jobs_completed": 1,
	}); err != nil {
		return err
	}
	for _, name := range []string{"chimera_simjob_jobs_run", "chimera_server_job_latency_ms_count"} {
		if metricValue(text, name) < 0 {
			return fmt.Errorf("metrics scrape missing %s", name)
		}
	}
	fmt.Println("smoke serve: metrics scrape ok")

	if err := queuedTimeout(ctx, c); err != nil {
		return err
	}

	if _, err := d.drain(ctx); err != nil {
		return err
	}
	fmt.Println("smoke serve: graceful drain ok")
	return nil
}

// queuedTimeout holds both of the daemon's workers with long jobs and
// requires a job whose timeout passes in the queue to fail with
// "deadline exceeded" within 2 s, its slot given back while the long
// jobs still run. It cancels the long jobs before it returns.
func queuedTimeout(ctx context.Context, c *client.Client) error {
	var held []string
	defer func() {
		for _, id := range held {
			_ = c.Cancel(ctx, id)
		}
	}()
	for seed := uint64(2); seed <= 3; seed++ {
		st, err := c.Submit(ctx, jobspec.Periodic("SAD", "").WithWindowUs(60e6).WithSeed(seed))
		if err != nil {
			return fmt.Errorf("submit long: %w", err)
		}
		held = append(held, st.ID)
	}
	running := func() error {
		for _, id := range held {
			st, err := c.Status(ctx, id)
			if err != nil {
				return fmt.Errorf("status %s: %w", id, err)
			}
			if st.State != server.StateRunning {
				return fmt.Errorf("long job %s is %s, want running", id, st.State)
			}
		}
		return nil
	}
	for running() != nil {
		select {
		case <-ctx.Done():
			return fmt.Errorf("long jobs never both ran: %w", running())
		case <-time.After(10 * time.Millisecond):
		}
	}

	st, err := c.Submit(ctx, jobspec.Periodic("SAD", "").WithWindowUs(2000).WithSeed(4).WithTimeoutMs(100))
	if err != nil {
		return fmt.Errorf("submit timed: %w", err)
	}
	within, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	fin, err := c.Await(within, st.ID, 25*time.Millisecond)
	if err != nil {
		return fmt.Errorf("queued job %s with timeout_ms 100 not ended within 2s: %w", st.ID, err)
	}
	if fin.State != server.StateFailed || fin.Error != "deadline exceeded" {
		return fmt.Errorf("queued job %s ended %s (%q), want failed (deadline exceeded)", st.ID, fin.State, fin.Error)
	}
	text, err := c.Metrics(ctx)
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	if err := checkCounters(text, map[string]float64{"chimera_server_queue_depth": 0}); err != nil {
		return err
	}
	if err := running(); err != nil {
		return err
	}
	fmt.Printf("smoke serve: queued job %s failed at its timeout, slot freed\n", st.ID)
	return nil
}

// serveChaos reboots the daemon with the fault plane armed — every
// distinct job's first execution panics (rate 1, cap 1) and a fifth of
// HTTP requests are 503'd — and verifies the daemon announces its plan
// fingerprint, the retrying client still completes every job, and the
// resilience counters land on /metrics.
func serveChaos(ctx context.Context, dir string) error {
	d, err := boot(ctx, dir, "chimerad",
		"-addr", "127.0.0.1:0", "-workers", "2", "-queue", "16",
		"-retry-budget", "1", "-watchdog", "2",
		"-fault-seed", "9",
		"-fault-job-panic", "1", "-fault-panic-cap", "1",
		"-fault-http-error", "0.2", "-fault-http-cap", "4",
	)
	if err != nil {
		return err
	}
	defer d.kill()
	fmt.Printf("smoke serve: faulted daemon up at %s\n", d.addr)

	c := client.New("http://"+d.addr, client.WithMaxAttempts(8))

	const jobs = 3
	for i := 0; i < jobs; i++ {
		// Distinct seeds make each submission a distinct simjob, so the
		// retry-counter check below is exact.
		spec := jobspec.Solo("SAD").WithWindowUs(100).WithSeed(uint64(9000 + i))
		if _, err := submitDone(ctx, c, spec); err != nil {
			return fmt.Errorf("job %d: %w", i, err)
		}
	}

	// Every job's first execution panicked and was retried exactly once;
	// the injected and recovered counts must both surface on /metrics.
	text, err := c.Metrics(ctx)
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	if err := checkCounters(text, map[string]float64{
		"chimera_faults_job_panics":  jobs,
		"chimera_server_job_retries": jobs,
		"chimera_simjob_panics":      jobs,
		"chimera_server_jobs_failed": 0,
	}); err != nil {
		return err
	}
	fmt.Printf("smoke serve: %d jobs recovered from injected panics\n", jobs)

	plan, err := d.drain(ctx)
	if err != nil {
		return err
	}
	if !strings.HasPrefix(plan, "faults:seed=9;") {
		return fmt.Errorf("daemon announced fault plan %q, want seed 9", plan)
	}
	fmt.Printf("smoke serve: fault plan %s verified, graceful drain ok\n", plan)
	return nil
}

// campaign is the recorded workload: every kind, a policy spread, and
// an exact duplicate whose replay must dedup.
func campaign() []jobspec.Spec {
	return []jobspec.Spec{
		jobspec.Solo("SAD").WithWindowUs(100),
		jobspec.Periodic("SAD", jobspec.PolicyChimera).WithWindowUs(100).WithPriority(2),
		jobspec.Periodic("SAD", jobspec.PolicyDrain).WithWindowUs(100),
		jobspec.Pair("SAD", "MUM", jobspec.PolicyFCFS).WithWindowUs(100),
		jobspec.Solo("SAD").WithWindowUs(100), // duplicate: must dedup
	}
}

// recordReplay executes the record leg, then the three replay legs.
func recordReplay(ctx context.Context, dir string) error {
	tmp, err := os.MkdirTemp("", "smoke-replay")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	traceFile := filepath.Join(tmp, "trace.jsonl")

	if err := record(ctx, dir, traceFile); err != nil {
		return fmt.Errorf("record leg: %w", err)
	}

	f, err := os.Open(traceFile)
	if err != nil {
		return err
	}
	defer f.Close()
	records, err := jobspec.ReadTrace(f)
	if err != nil {
		return err
	}
	if len(records) != len(campaign()) {
		return fmt.Errorf("trace holds %d records, want %d", len(records), len(campaign()))
	}
	fmt.Printf("smoke replay: recorded %d requests\n", len(records))

	// Replay twice clean, once with every execution slowed down —
	// timing faults must not perturb the report.
	reports := make([][]byte, 3)
	for i, extra := range [][]string{
		nil,
		nil,
		{"-fault-seed", "5", "-fault-job-slowdown", "1", "-fault-slowdown-delay", "2ms"},
	} {
		out := filepath.Join(tmp, fmt.Sprintf("report%d.json", i))
		args := append([]string{"-trace", traceFile, "-out", out}, extra...)
		cmd := exec.CommandContext(ctx, filepath.Join(dir, "chimerareplay"), args...)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("replay leg %d: %w", i, err)
		}
		if reports[i], err = os.ReadFile(out); err != nil {
			return err
		}
	}
	if !bytes.Equal(reports[0], reports[1]) {
		return fmt.Errorf("two clean replays produced different reports")
	}
	if !bytes.Equal(reports[0], reports[2]) {
		return fmt.Errorf("timing-faulted replay diverged from the clean report")
	}

	// Sanity-check the report's content, not just its stability.
	var rep struct {
		Replayed int `json:"replayed"`
		Done     int `json:"done"`
		Deduped  int `json:"deduped"`
	}
	if err := json.Unmarshal(reports[0], &rep); err != nil {
		return fmt.Errorf("report: %w", err)
	}
	if rep.Replayed != len(records) || rep.Done != len(records) {
		return fmt.Errorf("report replayed %d / done %d, want %d", rep.Replayed, rep.Done, len(records))
	}
	if rep.Deduped < 1 {
		return fmt.Errorf("duplicate submission did not dedup on replay")
	}
	fmt.Printf("smoke replay: 3 replays byte-identical (%d done, %d deduped)\n", rep.Done, rep.Deduped)
	return nil
}

// record boots the daemon with -record, drives the campaign and drains.
func record(ctx context.Context, dir, traceFile string) error {
	d, err := boot(ctx, dir, "chimerad", "-addr", "127.0.0.1:0", "-workers", "2", "-record", traceFile)
	if err != nil {
		return err
	}
	defer d.kill()
	fmt.Printf("smoke replay: recording daemon up at %s\n", d.addr)

	c := client.New("http://" + d.addr)
	for i, spec := range campaign() {
		if _, err := submitDone(ctx, c, spec); err != nil {
			return fmt.Errorf("job %d: %w", i, err)
		}
	}
	_, err = d.drain(ctx)
	return err
}

// fleet is a booted two-replica fleet plus its front proxy.
type fleet struct {
	replicas []*proc
	front    *proc
	peers    []string
	ring     *cluster.Ring
}

// kill force-stops every process (cleanup for error paths).
func (f *fleet) kill() {
	for _, r := range f.replicas {
		r.kill()
	}
	if f.front != nil {
		f.front.kill()
	}
}

// bootFleet reserves ports for both replicas (every replica must know
// the full peer list at boot), boots them with the cluster peer cache
// armed, then boots the front over the same list. extra flags go to
// replica index faultIdx only (the chaos leg's victim).
func bootFleet(ctx context.Context, dir string, faultIdx int, extra ...string) (*fleet, error) {
	ports, err := freePorts(2)
	if err != nil {
		return nil, err
	}
	f := &fleet{}
	for _, p := range ports {
		f.peers = append(f.peers, fmt.Sprintf("http://127.0.0.1:%d", p))
	}
	peerList := strings.Join(f.peers, ",")
	// The front's ring is rebuilt here from the same member list and
	// default vnodes, so the smoke can predict which replica owns a
	// given spec hash.
	f.ring = cluster.NewRing(f.peers, 0)
	for i, p := range ports {
		args := []string{
			"-addr", fmt.Sprintf("127.0.0.1:%d", p),
			"-workers", "2", "-queue", "32",
			"-peers", peerList, "-self", f.peers[i],
		}
		if i == faultIdx {
			args = append(args, extra...)
		}
		r, err := boot(ctx, dir, "chimerad", args...)
		if err != nil {
			f.kill()
			return nil, err
		}
		f.replicas = append(f.replicas, r)
	}
	f.front, err = boot(ctx, dir, "chimerafront",
		"-addr", "127.0.0.1:0", "-replicas", peerList, "-probe", "250ms")
	if err != nil {
		f.kill()
		return nil, err
	}
	return f, nil
}

// fleetClean drives the duplicate-heavy workload through the front and
// verifies fleet-wide memoization.
func fleetClean(ctx context.Context, dir string) error {
	f, err := bootFleet(ctx, dir, -1)
	if err != nil {
		return err
	}
	defer f.kill()
	fmt.Printf("smoke fleet: replicas %s + %s, front %s\n",
		f.replicas[0].addr, f.replicas[1].addr, f.front.addr)

	c := client.New("http://" + f.front.addr)

	// 8 distinct specs, each submitted 3 times. Serial submission makes
	// the counter arithmetic exact: the first submission of a spec
	// computes on its ring owner, the second is served by a peer-cache
	// probe that fills the front's memo, and the third by the memo,
	// touching no replica.
	const distinct, repeats = 8, 3
	results := make(map[uint64][]byte)
	for pass := 0; pass < repeats; pass++ {
		for s := 0; s < distinct; s++ {
			seed := uint64(100 + s)
			st, err := submitDone(ctx, c, jobspec.Solo("SAD").WithWindowUs(200).WithSeed(seed))
			if err != nil {
				return fmt.Errorf("pass %d seed %d: %w", pass, seed, err)
			}
			if pass == 0 {
				results[seed] = append([]byte(nil), st.Result...)
			} else if !bytes.Equal(results[seed], st.Result) {
				return fmt.Errorf("seed %d: duplicate result differs from original:\n%s\nvs\n%s",
					seed, results[seed], st.Result)
			}
			if pass > 0 && !st.Deduped {
				return fmt.Errorf("pass %d seed %d was not served as a duplicate", pass, seed)
			}
		}
	}
	fmt.Printf("smoke fleet: %d submissions (%d distinct), duplicates byte-identical\n",
		distinct*repeats, distinct)

	// Fleet-wide memoization: summed across both replicas, the simjob
	// executor ran each distinct spec exactly once, and the replicas
	// served one peer-cache probe per spec (the second pass).
	var executed, peerServed float64
	for _, base := range f.peers {
		text, err := client.New(base).Metrics(ctx)
		if err != nil {
			return fmt.Errorf("replica metrics: %w", err)
		}
		if v := metricValue(text, "chimera_simjob_jobs_run"); v > 0 {
			executed += v
		}
		if v := metricValue(text, "chimera_server_peer_served"); v > 0 {
			peerServed += v
		}
	}
	if executed != distinct {
		return fmt.Errorf("fleet executed %v jobs, want exactly %d (duplicates recomputed?)", executed, distinct)
	}
	if peerServed != distinct {
		return fmt.Errorf("replicas served %v peer-cache probes, want exactly %d (front memo bypassed?)", peerServed, distinct)
	}
	fmt.Printf("smoke fleet: fleet executed exactly %d jobs and served %d probes for %d submissions\n",
		distinct, distinct, distinct*repeats)

	// The front must have routed only the distinct specs and served
	// every later duplicate itself: the second pass from the replicas'
	// peer caches, the third from its memo.
	frontText, err := c.Metrics(ctx)
	if err != nil {
		return fmt.Errorf("front metrics: %w", err)
	}
	if err := checkCounters(frontText, map[string]float64{
		"chimera_front_jobs_routed": distinct,
		"chimera_front_cache_hits":  distinct * (repeats - 1),
		"chimera_front_memo_hits":   distinct,
	}); err != nil {
		return err
	}
	fmt.Println("smoke fleet: front routed/cache-hit/memo-hit counters exact")

	// Graceful drains: front first (it stops proxying), then replicas.
	if _, err := f.front.drain(ctx); err != nil {
		return err
	}
	for _, r := range f.replicas {
		if _, err := r.drain(ctx); err != nil {
			return err
		}
	}
	fmt.Println("smoke fleet: graceful fleet drain ok")
	return nil
}

// seedsOwnedBy picks n job seeds whose spec hashes the ring assigns to
// member — the deterministic way to guarantee the chaos kill actually
// orphans live traffic.
func seedsOwnedBy(ring *cluster.Ring, member string, start uint64, n int) []uint64 {
	var out []uint64
	for seed := start; len(out) < n; seed++ {
		spec := jobspec.Solo("SAD").WithWindowUs(200).WithSeed(seed)
		if ring.Owner(spec.Hash()) == member {
			out = append(out, seed)
		}
	}
	return out
}

// fleetChaos arms replica 1's HTTP fault plane, kills it mid-run, and
// verifies the front reroutes its ring range with zero failed jobs.
func fleetChaos(ctx context.Context, dir string) error {
	const victim = 1
	f, err := bootFleet(ctx, dir, victim,
		"-fault-seed", "7",
		"-fault-http-error", "0.3", "-fault-http-cap", "6",
		"-fault-http-reset", "0.2",
	)
	if err != nil {
		return err
	}
	defer f.kill()
	fmt.Printf("smoke fleet: chaos fleet up, victim %s\n", f.replicas[victim].addr)

	c := client.New("http://"+f.front.addr, client.WithMaxAttempts(8))

	// Phase 1: jobs owned by the victim, submitted while it is alive and
	// injecting 503s/resets — the front must absorb the faults.
	pre := seedsOwnedBy(f.ring, f.peers[victim], 500, 6)
	for _, seed := range pre {
		if _, err := submitDone(ctx, c, jobspec.Solo("SAD").WithWindowUs(200).WithSeed(seed)); err != nil {
			return fmt.Errorf("pre-kill seed %d: %w", seed, err)
		}
	}
	fmt.Printf("smoke fleet: %d jobs done through the faulted victim\n", len(pre))

	// Kill the victim mid-run: SIGTERM starts its drain (admission goes
	// 503 immediately), so in-flight work finishes but the ring range is
	// orphaned while the remaining load is still flowing.
	if err := f.replicas[victim].term(); err != nil {
		return err
	}

	// Phase 2: more jobs owned by the (now dying) victim. Every one must
	// fail over to the survivor and complete.
	post := seedsOwnedBy(f.ring, f.peers[victim], 900, 6)
	for _, seed := range post {
		if _, err := submitDone(ctx, c, jobspec.Solo("SAD").WithWindowUs(200).WithSeed(seed)); err != nil {
			return fmt.Errorf("post-kill seed %d: %w", seed, err)
		}
	}
	fmt.Printf("smoke fleet: %d orphaned-range jobs failed over, zero failed\n", len(post))

	// The victim must have drained gracefully on that one SIGTERM —
	// drain only waits — and reported its deterministic fault plan.
	plan, err := f.replicas[victim].drain(ctx)
	if err != nil {
		return err
	}
	if !strings.HasPrefix(plan, "faults:seed=7;") {
		return fmt.Errorf("victim announced fault plan %q, want seed 7", plan)
	}
	fmt.Printf("smoke fleet: victim fault plan %s verified\n", plan)

	// The front's failover counter must show at least the first reroute;
	// after that the health view marks the victim down and later jobs
	// route straight to the survivor (which is not a failover).
	frontText, err := c.Metrics(ctx)
	if err != nil {
		return fmt.Errorf("front metrics: %w", err)
	}
	if v := metricValue(frontText, "chimera_front_failovers"); v < 1 {
		return fmt.Errorf("front recorded %v failovers, want >= 1", v)
	}
	fmt.Println("smoke fleet: front failover counter moved")

	if _, err := f.front.drain(ctx); err != nil {
		return err
	}
	if _, err := f.replicas[0].drain(ctx); err != nil {
		return err
	}
	fmt.Println("smoke fleet: chaos fleet drained")
	return nil
}
