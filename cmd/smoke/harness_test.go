package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// fakeEnv, when set, turns the test binary into a fake daemon that
// speaks the boot/drain protocol and misbehaves as its value says.
const fakeEnv = "SMOKE_FAKE_DAEMON"

func TestMain(m *testing.M) {
	if mode, ok := os.LookupEnv(fakeEnv); ok {
		os.Exit(fakeDaemon(mode))
	}
	os.Exit(m.Run())
}

// fakeDaemon announces itself under its binary name, waits for SIGTERM
// and drains. Modes: "silent" never announces; "nodrain" exits 0
// without the drain marker; "fail" prints the marker and exits 1. Like
// chimerad, every mode takes a second SIGTERM as a cancel and exits 3.
func fakeDaemon(mode string) int {
	if mode == "silent" {
		return 0
	}
	name := filepath.Base(os.Args[0])
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGTERM)
	fmt.Printf("%s listening on 127.0.0.1:1\n", name)
	fmt.Println("chimerad fault plan faults:seed=1;")
	<-sigs
	select {
	case <-sigs:
		return 3
	case <-time.After(200 * time.Millisecond):
	}
	if mode != "nodrain" {
		fmt.Printf("%s drained\n", name)
	}
	if mode == "fail" {
		return 1
	}
	return 0
}

// TestHarnessReportsProtocolFailures boots the fake daemon in each mode
// and checks that boot/drain report exactly the failures the smokes
// exist to catch.
func TestHarnessReportsProtocolFailures(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		mode string
		// term signals before drain, as the fleet chaos leg does; the
		// pause lets the first SIGTERM land, since the kernel merges
		// two pending ones into one.
		term bool
		want string // error substring, "" for a clean drain
	}{
		{mode: "silent", want: "never announced its address"},
		{mode: "nodrain", want: "exited without draining"},
		{mode: "fail", want: "exited non-zero after SIGTERM"},
		{mode: "graceful", term: true},
	} {
		t.Run(tc.mode, func(t *testing.T) {
			t.Setenv(fakeEnv, tc.mode)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			p, err := boot(ctx, filepath.Dir(exe), filepath.Base(exe))
			if err == nil {
				defer p.kill()
				if tc.term {
					if err := p.term(); err != nil {
						t.Fatal(err)
					}
					time.Sleep(50 * time.Millisecond)
				}
				var plan string
				if plan, err = p.drain(ctx); err == nil && plan != "faults:seed=1;" {
					t.Errorf("drain returned fault plan %q, want %q", plan, "faults:seed=1;")
				}
			}
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("unexpected error: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("error = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// TestMetricValueIsExact pins the exact-value semantics of counter
// checks: "x 20" must not satisfy x == 2, as a substring test would.
func TestMetricValueIsExact(t *testing.T) {
	body := "# TYPE x counter\nx 20\nx_count 2\n"
	if v := metricValue(body, "x"); v != 20 {
		t.Fatalf("metricValue(x) = %v, want 20", v)
	}
	if err := checkCounters(body, map[string]float64{"x": 2}); err == nil {
		t.Fatal("a body holding x 20 satisfied x == 2")
	}
	if err := checkCounters(body, map[string]float64{"x": 20, "x_count": 2}); err != nil {
		t.Fatal(err)
	}
	if v := metricValue(body, "y"); v != -1 {
		t.Fatalf("metricValue(y) = %v, want -1 for an absent series", v)
	}
}
