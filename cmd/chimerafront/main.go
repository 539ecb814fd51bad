// Command chimerafront is the fleet front proxy (docs/cluster.md): it
// admits simulation jobs fleet-wide with load shedding, deduplicates
// finished work through the replicas' peer result-caches, and routes
// every submission to the chimerad replica owning its jobspec content
// hash on a consistent-hash ring, failing over along the ring when a
// replica is dead or draining.
//
// The public surface is the same HTTP/JSON API one chimerad serves
// (docs/server.md); job IDs gain a replica prefix ("r1.j7") so status,
// result, trace and cancel requests route back to the owning replica.
//
// Usage:
//
//	chimerafront -replicas URL,URL,... [flags]
//
// Flags:
//
//	-addr HOST:PORT   listen address (default 127.0.0.1:8090; :0 picks
//	                  a free port, printed on stdout as "chimerafront
//	                  listening on ADDR")
//	-replicas LIST    comma-separated replica base URLs (required),
//	                  e.g. http://127.0.0.1:8080,http://127.0.0.1:8081
//	-max-inflight N   fleet-wide concurrent-admission cap; beyond it
//	                  submissions shed with 429 + Retry-After
//	                  (default 256)
//	-probe D          health-probe cadence over the replicas
//	                  (default 1s; 0 disables probing — demand-driven
//	                  marks still apply)
//
// SIGINT/SIGTERM shut the proxy down gracefully: in-flight proxied
// requests finish, then the process exits 0 after printing
// "chimerafront drained".
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
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8090", "listen address (use :0 for a random free port)")
	replicas := flag.String("replicas", "", "comma-separated replica base URLs (required)")
	maxInflight := flag.Int("max-inflight", 256, "fleet-wide concurrent-admission cap")
	probe := flag.Duration("probe", time.Second, "health-probe cadence (0 disables probing)")
	flag.Parse()

	list := splitList(*replicas)
	if len(list) == 0 {
		fmt.Fprintln(os.Stderr, "chimerafront: -replicas is required")
		os.Exit(2)
	}
	if err := run(*addr, list, *maxInflight, *probe); err != nil {
		fmt.Fprintf(os.Stderr, "chimerafront: %v\n", err)
		os.Exit(1)
	}
}

// splitList parses a comma-separated flag value, dropping empties.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// run boots the proxy and blocks until a shutdown signal has drained.
func run(addr string, replicas []string, maxInflight int, probe time.Duration) error {
	front := cluster.NewFront(cluster.FrontConfig{
		Replicas:    replicas,
		MaxInflight: maxInflight,
	})

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// The load generator and the fleet smoke discover a :0 port from
	// this line; keep its shape stable.
	fmt.Printf("chimerafront listening on %s\n", ln.Addr())
	fmt.Printf("chimerafront fronting %d replicas\n", front.Ring().Len())

	probeCtx, probeCancel := context.WithCancel(context.Background())
	defer probeCancel()
	if probe > 0 {
		go func() {
			tick := time.NewTicker(probe)
			defer tick.Stop()
			for {
				select {
				case <-probeCtx.Done():
					return
				case <-tick.C:
					front.ProbeOnce(probeCtx)
				}
			}
		}()
	}

	hs := &http.Server{Handler: front.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		return err
	case sig := <-sigs:
		fmt.Fprintf(os.Stderr, "chimerafront: %v: draining\n", sig)
	}
	probeCancel()

	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "chimerafront: http shutdown: %v\n", err)
	}
	fmt.Println("chimerafront drained")
	return nil
}
