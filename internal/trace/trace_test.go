package trace

import (
	"strings"
	"testing"
)

func TestCollectorRetainsEverything(t *testing.T) {
	c := NewCollector()
	for i := 0; i < 1000; i++ {
		c.Record(Event{At: 1, SM: i, TB: -1})
	}
	if c.Len() != 1000 {
		t.Fatalf("Len = %d", c.Len())
	}
	for i, e := range c.Events() {
		if e.SM != i {
			t.Fatalf("event %d out of order: %+v", i, e)
		}
	}
}

func TestEventString(t *testing.T) {
	e := Event{At: 1400, Kind: FlushTB, Kernel: "BS.0", SM: 3, TB: 12, Detail: "wasted=100 insts"}
	s := e.String()
	for _, want := range []string{"flush", "BS.0", "sm=3", "tb=12", "wasted=100"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	minimal := Event{Kind: KernelLaunch, Kernel: "K", SM: -1, TB: -1}
	if s := minimal.String(); strings.Contains(s, "sm=") || strings.Contains(s, "tb=") {
		t.Errorf("minimal event rendered scoped fields: %q", s)
	}
}

func TestKindStrings(t *testing.T) {
	kinds := []Kind{KernelLaunch, KernelFinish, KernelKill, Request, FlushTB, SaveTB, DrainTB, SaveDone, RestoreTB, Handover, DeadlineMiss}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("kind %d name %q empty or duplicate", k, s)
		}
		seen[s] = true
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind must render")
	}
}
