// Fleet performance baselines (BENCH_cluster.json, `make bench`): ring
// routing cost, fleet job throughput through the front, and the
// memo-hit fast path that the fleet tier exists for.
package cluster_test

import (
	"context"
	"fmt"
	"testing"

	"chimera/internal/cluster"
	"chimera/internal/jobspec"
	"chimera/internal/server"
	"chimera/internal/server/client"
)

// BenchmarkFleetRingOwner measures one routing decision: spec hash →
// owning replica. This sits on every fleet submission.
func BenchmarkFleetRingOwner(b *testing.B) {
	members := make([]string, 8)
	for i := range members {
		members[i] = fmt.Sprintf("http://10.0.0.%d:8080", i+1)
	}
	ring := cluster.NewRing(members, 0)
	keys := make([]string, 1024)
	for i := range keys {
		spec := jobspec.Solo("SAD").WithSeed(uint64(i + 1))
		spec.Normalize()
		keys[i] = spec.Hash()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ring.Owner(keys[i%len(keys)]) == "" {
			b.Fatal("empty owner")
		}
	}
}

// BenchmarkFleetSubmit measures distinct-job throughput through the
// full fleet path: front admission, ring routing, replica execution.
// jobs/sec is 1e9/ns-per-op.
func BenchmarkFleetSubmit(b *testing.B) {
	f := bootFleet(b, 3)
	c := client.New(f.frontTS.URL)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := jobspec.Solo("SAD").WithWindowUs(50).WithSeed(uint64(1e6 + i))
		st, err := c.SubmitWait(ctx, spec)
		if err != nil || st.State != server.StateDone {
			b.Fatalf("job %d: %v %v", i, st.State, err)
		}
	}
}

// BenchmarkFleetCacheHit measures the duplicate fast path: the front
// serves a finished result from its own memo. The warm-up computes the
// result and then repeats it once, a peer-cache probe that fills the
// memo, so every timed submission is a memo hit that touches no
// replica.
func BenchmarkFleetCacheHit(b *testing.B) {
	f := bootFleet(b, 3)
	c := client.New(f.frontTS.URL)
	ctx := context.Background()
	spec := jobspec.Solo("SAD").WithWindowUs(50).WithSeed(31337)
	for i := 0; i < 2; i++ {
		if st, err := c.SubmitWait(ctx, spec); err != nil || st.State != server.StateDone {
			b.Fatalf("warmup %d: %v %v", i, st.State, err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := c.SubmitWait(ctx, spec)
		if err != nil || st.State != server.StateDone {
			b.Fatalf("dup %d: %v %v", i, st.State, err)
		}
		if !st.Deduped {
			b.Fatalf("dup %d recomputed", i)
		}
	}
}
