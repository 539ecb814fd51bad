package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// runMainEnv makes the test binary run chimerasim's main instead of its
// tests, so a test can drive the command as a process.
const runMainEnv = "CHIMERASIM_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// chimerasim runs the command with args and returns its standard output.
func chimerasim(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("chimerasim %v: %v\n%s", args, err, stderr.Bytes())
	}
	return out
}

// TestCPUProfile: -cpuprofile writes a non-empty profile and leaves
// standard output byte-identical.
func TestCPUProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	plain := chimerasim(t, "table1")
	profiled := chimerasim(t, "-cpuprofile", path, "table1")
	if !bytes.Equal(plain, profiled) {
		t.Errorf("-cpuprofile changed standard output:\n%s\nwant:\n%s", profiled, plain)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() == 0 {
		t.Error("-cpuprofile wrote an empty profile")
	}
}
