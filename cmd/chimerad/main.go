// Command chimerad serves the Chimera simulator over HTTP: scenario
// jobs are submitted as JSON, deduplicated through the shared result
// cache, executed on a bounded worker pool with per-job deadlines and
// priorities, and observable live via /metrics (Prometheus), SSE job
// progress and Perfetto trace export. The API is documented in
// docs/server.md.
//
// Usage:
//
//	chimerad [flags]
//
// Flags:
//
//	-addr HOST:PORT  listen address (default 127.0.0.1:8080; :0 picks a
//	                 free port, printed on stdout as "chimerad listening
//	                 on ADDR")
//	-workers N       concurrent job executors (default 2)
//	-queue N         admission queue capacity; beyond it submissions get
//	                 429 + Retry-After (default 64)
//	-cache N         LRU cap on cached simulation results (0 = unbounded)
//	-timeout D       default per-job deadline (default 60s)
//	-watchdog K      arm the engine preemption watchdog at K× a
//	                 request's estimated latency (0 = off)
//	-retry-budget N  re-execute a job up to N times when its run
//	                 panicked (default 0)
//	-record FILE     append a versioned JSONL workload trace (one
//	                 jobspec.TraceRecord per admitted job at its
//	                 terminal state; docs/jobs.md) — the input of
//	                 chimerareplay
//	-peers LIST      comma-separated base URLs of every fleet replica
//	                 (including this one); arms the cluster peer
//	                 result-cache (docs/cluster.md)
//	-self URL        this replica's own advertised base URL (required
//	                 with -peers; never consulted as a peer)
//
// Deterministic fault injection (docs/faults.md) is armed by the
// -fault-* flags; all rates are probabilities in [0,1] and a zero rate
// disables that domain. The plan's fingerprint is printed at boot so a
// replay can verify it runs the same plan:
//
//	-fault-seed N             decision seed (same seed, same faults)
//	-fault-job-panic P        simjob execution panic rate
//	-fault-panic-cap N        max injected panics per distinct job
//	                          (default 1, so retries always converge)
//	-fault-job-slowdown P     simjob execution delay rate
//	-fault-slowdown-delay D   injected execution delay (default 1ms)
//	-fault-engine-stall P     preemption-technique stall rate
//	-fault-stall-factor F     stall length, in multiples of the
//	                          request's estimated latency (default 8)
//	-fault-stall-cap N        max stalls per simulation run (0 = no cap)
//	-fault-http-error P       injected 503 rate (any method)
//	-fault-http-reset P       connection-reset rate (idempotent methods)
//	-fault-http-delay P       request latency-spike rate
//	-fault-http-delay-amount D  injected request delay (default 5ms)
//	-fault-http-cap N         max injections per HTTP fault kind
//	                          (0 = no cap)
//
// SIGINT/SIGTERM start a graceful drain: admission stops (503), queued
// and running jobs finish, then the process exits 0. A second signal —
// or a drain exceeding -drain-grace — cancels outstanding jobs first.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"chimera/internal/cluster"
	"chimera/internal/faults"
	"chimera/internal/server"
)

// options carries every flag-settable knob into run.
type options struct {
	addr        string
	workers     int
	queueCap    int
	cacheCap    int
	timeout     time.Duration
	drainGrace  time.Duration
	watchdogK   float64
	retryBudget int
	record      string
	peers       string
	self        string
	faults      faults.Config
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", "127.0.0.1:8080", "listen address (use :0 for a random free port)")
	flag.IntVar(&o.workers, "workers", 2, "concurrent job executors")
	flag.IntVar(&o.queueCap, "queue", 64, "admission queue capacity")
	flag.IntVar(&o.cacheCap, "cache", 0, "LRU cap on cached simulation results (0 = unbounded)")
	flag.DurationVar(&o.timeout, "timeout", 60*time.Second, "default per-job deadline")
	flag.DurationVar(&o.drainGrace, "drain-grace", 30*time.Second, "graceful-drain budget before outstanding jobs are cancelled")
	flag.Float64Var(&o.watchdogK, "watchdog", 0, "arm the engine preemption watchdog at K× a request's estimated latency (0 = off)")
	flag.IntVar(&o.retryBudget, "retry-budget", 0, "re-execute a job up to N times when its run panicked")
	flag.StringVar(&o.record, "record", "", "append a JSONL workload trace of admitted jobs to FILE")
	flag.StringVar(&o.peers, "peers", "", "comma-separated base URLs of every fleet replica (arms the cluster peer cache)")
	flag.StringVar(&o.self, "self", "", "this replica's advertised base URL (required with -peers)")
	flag.Uint64Var(&o.faults.Seed, "fault-seed", 0, "fault-injection decision seed")
	flag.Float64Var(&o.faults.JobPanic, "fault-job-panic", 0, "simjob execution panic rate [0,1]")
	flag.IntVar(&o.faults.MaxPanicsPerJob, "fault-panic-cap", 1, "max injected panics per distinct job (0 = no cap)")
	flag.Float64Var(&o.faults.JobSlowdown, "fault-job-slowdown", 0, "simjob execution delay rate [0,1]")
	flag.DurationVar(&o.faults.SlowdownDelay, "fault-slowdown-delay", time.Millisecond, "injected execution delay")
	flag.Float64Var(&o.faults.EngineStall, "fault-engine-stall", 0, "preemption-technique stall rate [0,1]")
	flag.Float64Var(&o.faults.StallFactor, "fault-stall-factor", 8, "stall length in multiples of the request's estimated latency")
	flag.IntVar(&o.faults.MaxStallsPerRun, "fault-stall-cap", 0, "max stalls per simulation run (0 = no cap)")
	flag.Float64Var(&o.faults.HTTPError, "fault-http-error", 0, "injected 503 rate [0,1]")
	flag.Float64Var(&o.faults.HTTPReset, "fault-http-reset", 0, "connection-reset rate on idempotent requests [0,1]")
	flag.Float64Var(&o.faults.HTTPDelay, "fault-http-delay", 0, "request latency-spike rate [0,1]")
	flag.DurationVar(&o.faults.HTTPDelayAmount, "fault-http-delay-amount", 5*time.Millisecond, "injected request delay")
	flag.IntVar(&o.faults.MaxHTTPFaults, "fault-http-cap", 0, "max injections per HTTP fault kind (0 = no cap)")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintf(os.Stderr, "chimerad: %v\n", err)
		os.Exit(1)
	}
}

// faultsArmed reports whether any injection domain has a non-zero rate.
func faultsArmed(c faults.Config) bool {
	return c.JobPanic > 0 || c.JobSlowdown > 0 || c.EngineStall > 0 ||
		c.HTTPError > 0 || c.HTTPReset > 0 || c.HTTPDelay > 0
}

// run boots the service and blocks until a shutdown signal has been
// fully drained.
func run(o options) error {
	cfg := server.Config{
		Workers:        o.workers,
		QueueCap:       o.queueCap,
		CacheCap:       o.cacheCap,
		DefaultTimeout: o.timeout,
		WatchdogK:      o.watchdogK,
		RetryBudget:    o.retryBudget,
	}
	if o.peers != "" {
		if o.self == "" {
			return fmt.Errorf("-peers requires -self (this replica's advertised base URL)")
		}
		var peers []string
		for _, p := range strings.Split(o.peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peers = append(peers, p)
			}
		}
		cfg.Cluster = &cluster.Node{
			Self: o.self,
			Ring: cluster.NewRing(peers, 0),
			// Peer fetches sit on the job hot path; a short transport
			// deadline on top of the cluster's 250 ms lookup bound keeps
			// a dead peer from ever stalling admission.
			Fetch: cluster.NewHTTPFetch(&http.Client{Timeout: time.Second}),
		}
		fmt.Printf("chimerad cluster ring over %d replicas (self %s)\n", cfg.Cluster.Ring.Len(), o.self)
	}
	var plan *faults.Plan
	if faultsArmed(o.faults) {
		// Injected delays block real goroutines in a real daemon.
		o.faults.Sleep = time.Sleep
		plan = faults.New(o.faults)
		cfg.Faults = plan
	}
	if o.record != "" {
		f, err := os.OpenFile(o.record, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("open record file: %w", err)
		}
		defer f.Close()
		cfg.Record = f
		fmt.Printf("chimerad recording to %s\n", o.record)
	}
	svc := server.New(cfg)

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	// The load generator and the smoke test discover a :0 port from this
	// line; keep its shape stable.
	fmt.Printf("chimerad listening on %s\n", ln.Addr())

	handler := svc.Handler()
	if plan != nil {
		handler = plan.Middleware(handler)
		fmt.Printf("chimerad fault plan %s\n", plan.Fingerprint())
	}
	hs := &http.Server{Handler: handler}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		return err
	case sig := <-sigs:
		fmt.Fprintf(os.Stderr, "chimerad: %v: draining (second signal cancels)\n", sig)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), o.drainGrace)
	defer cancel()
	go func() {
		<-sigs
		cancel()
	}()

	// Stop accepting connections, then drain the job queue.
	httpCtx, httpCancel := context.WithTimeout(context.Background(), o.drainGrace)
	defer httpCancel()
	if err := hs.Shutdown(httpCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "chimerad: http shutdown: %v\n", err)
	}
	if err := svc.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "chimerad: drain cut short: %v\n", err)
	}
	if plan != nil {
		fmt.Fprintf(os.Stderr, "chimerad: injected %s\n", plan)
	}
	fmt.Println("chimerad drained")
	return nil
}
