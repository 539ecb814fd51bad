package faults_test

import (
	"fmt"
	"testing"

	"chimera/internal/faults"
	"chimera/internal/jobspec"
	"chimera/internal/simjob"
	"chimera/internal/workloads"
)

// TestJobKeyGolden pins the decision identity of the jobs chimerad
// builds from specs, through the executor's own job-building path. Every
// fault decision and every injected stall stream hashes from JobKey, so
// a moved key changes which jobs a plan faults: chimerachaos's report
// and any recorded chaos run would no longer reproduce. A deliberate
// change re-records these digests and chaos_report.txt together.
func TestJobKeyGolden(t *testing.T) {
	plan := faults.New(faults.Config{Seed: 1, JobPanic: 0.1, EngineStall: 0.2})
	clean := workloads.NewExecutor(workloads.NewEnv(simjob.NewCache()))
	faultedEnv := workloads.NewEnv(simjob.NewCache())
	faultedEnv.Variant = plan.Fingerprint()
	faultedEnv.Stall = plan.EngineStallFunc(faults.Key("golden"))
	faulted := workloads.NewExecutor(faultedEnv)

	for _, g := range []struct {
		name string
		ex   *workloads.Executor
		spec jobspec.Spec
		key  string
	}{
		{"solo", clean, jobspec.Solo("SAD"), "ab04fb43e1a9d2b9"},
		{"chimera periodic", clean, jobspec.Periodic("SAD", jobspec.PolicyChimera).WithConstraintUs(10), "4fc954d1582617d1"},
		{"fcfs pair", clean, jobspec.Pair("HS", "SAD", jobspec.PolicyFCFS).WithWindowUs(2000), "1608c3ed9ed5bec5"},
		{"faulted periodic", faulted, jobspec.Periodic("LUD", jobspec.PolicyFlush).WithSeed(3), "cd5ba16473f540ca"},
	} {
		job, err := g.ex.SimJob(g.spec)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if got := fmt.Sprintf("%016x", faults.JobKey(job)); got != g.key {
			t.Errorf("%s: JobKey = %s, want %s (job %+v)", g.name, got, g.key, job)
		}
	}
}
