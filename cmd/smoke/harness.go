package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"

	"chimera/internal/jobspec"
	"chimera/internal/server"
	"chimera/internal/server/client"
)

// proc is one booted process under test (chimerad or chimerafront).
type proc struct {
	name   string
	cmd    *exec.Cmd
	addr   string
	termed bool
	// plan is the fingerprint a chimerad printed when its fault plane
	// was armed ("" when it never printed one), and drained reports
	// whether the "NAME drained" marker appeared before stdout closed.
	// Both are final once scanned is closed.
	plan    string
	drained bool
	scanned chan struct{}
}

// boot starts dir/name and waits for its "NAME listening on ADDR"
// announcement, then keeps scanning stdout for the fault-plan banner
// and the "NAME drained" marker.
func boot(ctx context.Context, dir, name string, args ...string) (*proc, error) {
	cmd := exec.CommandContext(ctx, filepath.Join(dir, name), args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("boot %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, scanned: make(chan struct{})}

	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), name+" listening on "); ok {
			p.addr = rest
			break
		}
	}
	if p.addr == "" {
		p.kill()
		return nil, fmt.Errorf("%s never announced its address", name)
	}
	go func() {
		defer close(p.scanned)
		for !p.drained && sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "chimerad fault plan "); ok {
				p.plan = rest
			}
			p.drained = strings.Contains(line, name+" drained")
		}
	}()
	return p, nil
}

// kill force-stops the process (cleanup for error paths).
func (p *proc) kill() {
	_ = p.cmd.Process.Kill()
}

// term sends SIGTERM at most once. chimerad takes a second signal as
// "cancel outstanding jobs", so signalling again would turn the
// graceful drain under test into a forced one.
func (p *proc) term() error {
	if p.termed {
		return nil
	}
	p.termed = true
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal %s: %w", p.name, err)
	}
	return nil
}

// drain signals the process unless term already did, then requires the
// drain marker and exit 0. It returns the fault-plan fingerprint seen
// on stdout.
func (p *proc) drain(ctx context.Context) (string, error) {
	if err := p.term(); err != nil {
		return "", err
	}
	// stdout closes when the process exits, and CommandContext kills it
	// once ctx ends, so this wait is bounded by the budget. The pipe
	// must be read up to the marker before cmd.Wait — Wait closes it
	// and would discard a still-buffered marker line.
	<-p.scanned
	err := p.cmd.Wait()
	switch {
	case ctx.Err() != nil:
		return p.plan, fmt.Errorf("%s did not drain after SIGTERM: %w", p.name, ctx.Err())
	case !p.drained:
		return p.plan, fmt.Errorf("%s exited without draining", p.name)
	case err != nil:
		return p.plan, fmt.Errorf("%s exited non-zero after SIGTERM: %w", p.name, err)
	}
	return p.plan, nil
}

// freePorts reserves n distinct free TCP ports by binding them all,
// then releasing them on return. The tiny release-to-reuse window is an
// accepted smoke-test race; a clash fails loudly at boot.
func freePorts(n int) ([]int, error) {
	var ports []int
	for len(ports) < n {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		ports = append(ports, ln.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// metricValue extracts one unlabelled series' value from a Prometheus
// text body (-1 when absent). Checks compare it exactly: a substring
// test for "name 2" would also accept "name 20".
func metricValue(text, name string) float64 {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err == nil {
				return v
			}
		}
	}
	return -1
}

// checkCounters requires each named series in text to hold exactly its
// wanted value.
func checkCounters(text string, want map[string]float64) error {
	for name, w := range want {
		if v := metricValue(text, name); v != w {
			return fmt.Errorf("metric %s = %v, want %v", name, v, w)
		}
	}
	return nil
}

// submitDone submits spec, waits for it, and requires it done with a
// result payload.
func submitDone(ctx context.Context, c *client.Client, spec jobspec.Spec) (server.JobStatus, error) {
	st, err := c.SubmitWait(ctx, spec)
	if err != nil {
		return st, err
	}
	if st.State != server.StateDone {
		return st, fmt.Errorf("job %s finished %s: %s", st.ID, st.State, st.Error)
	}
	if len(st.Result) == 0 {
		return st, fmt.Errorf("job %s done without result", st.ID)
	}
	return st, nil
}
