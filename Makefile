# Chimera reproduction — build, test and evaluation targets.

GO ?= go

# Pinned staticcheck release (supports the go.mod language version).
# CI installs it; locally `make lint` uses it when present and says so
# when not, since offline containers cannot fetch it.
STATICCHECK_VERSION ?= 2025.1.1

.PHONY: all build test short cover bench bench-all benchdiff verify-identical race results quick-results fuzz fuzz-smoke examples vet lint docs-check serve-smoke replay-smoke fleet-smoke clean

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static-analysis gate (see docs/static-analysis.md): go vet, the
# project's own chimeravet suite (determinism, sim-clock, context-flow
# and schema invariants), the negative selftest that proves the fixture
# corpus still fails, and a pinned staticcheck when installed.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/chimeravet ./...
	$(GO) run ./cmd/chimeravet -selftest
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI pins honnef.co/go/tools@$(STATICCHECK_VERSION))"; \
	fi

test:
	$(GO) test ./...

short:
	$(GO) test -short ./...

cover:
	$(GO) test -cover ./...

# Perf baselines (see docs/performance.md), one NAME:PACKAGE:PATTERN
# group per line, each recorded as BENCH_NAME.json: the simulator inner
# loop (ns/sim-cycle), Algorithm 1 selection, the idempotence analysis
# and the spec-addressed job layer (core); the multitasking hot-loop
# scenario (engine); the event-queue microbenchmarks (eventq); the fleet
# front and peer cache (cluster); the chimerad admission-queue hot loop
# (sched). `make bench` regenerates the checked-in files so perf PRs
# have a before/after to diff — `make benchdiff` checks a fresh run
# against them.
BENCH_GROUPS = \
	core:.:^(BenchmarkSimulation|BenchmarkSelect|BenchmarkAnalyze|BenchmarkSimjobPool)$$ \
	engine:.:^BenchmarkEngineHot$$ \
	eventq:./internal/eventq/:^BenchmarkEventQ \
	cluster:./internal/cluster/:^BenchmarkFleet \
	sched:./internal/sched/:^BenchmarkAdmissionQueue$$

bench_field = $(word $(2),$(subst :, ,$(1)))

# bench_groups PREFIX: run every group into PREFIX<name>.json.
define bench_groups
$(foreach g,$(BENCH_GROUPS),$(GO) test -run '^$$' -bench '$(call bench_field,$(g),3)' -benchmem -count=1 $(call bench_field,$(g),2) | $(GO) run ./cmd/benchjson -out $(1)$(call bench_field,$(g),1).json
)
endef

bench:
	$(call bench_groups,BENCH_)

# Non-regression gate: rerun the baseline benchmarks into a scratch
# directory and compare against the checked-in BENCH_*.json with
# cmd/benchdiff. The tolerance defaults to 30%; noisy machines can
# widen it via BENCHDIFF_TOL (e.g. BENCHDIFF_TOL=0.75 on shared CI
# runners). After a deliberate perf change, run `make bench` and commit
# the refreshed baselines.
BENCHDIFF_DIR ?= /tmp/chimera-benchdiff
benchdiff:
	mkdir -p $(BENCHDIFF_DIR)
	$(call bench_groups,$(BENCHDIFF_DIR)/)
	$(GO) run ./cmd/benchdiff $(foreach g,$(BENCH_GROUPS),BENCH_$(call bench_field,$(g),1).json $(BENCHDIFF_DIR)/$(call bench_field,$(g),1).json)

# Metamorphic identity gate: the quick exhibit sweep must be
# bit-reproducible (two runs byte-identical) and must still match the
# checked-in canonical trace — the proof that perf work (pooling,
# batching, queue swaps) changed no observable behavior.
VERIFY_DIR ?= /tmp/chimera-verify
verify-identical:
	mkdir -p $(VERIFY_DIR)/a $(VERIFY_DIR)/b
	$(GO) run ./cmd/chimerasim -quick -trace trace.json all > $(VERIFY_DIR)/a/results.txt 2>&1 && mv trace.json $(VERIFY_DIR)/a/trace.json
	$(GO) run ./cmd/chimerasim -quick -trace trace.json all > $(VERIFY_DIR)/b/results.txt 2>&1 && mv trace.json $(VERIFY_DIR)/b/trace.json
	cmp $(VERIFY_DIR)/a/results.txt $(VERIFY_DIR)/b/results.txt
	cmp $(VERIFY_DIR)/a/trace.json $(VERIFY_DIR)/b/trace.json
	cmp $(VERIFY_DIR)/a/trace.json trace_canonical.json
	@echo "verify-identical: two quick sweeps byte-identical and equal to trace_canonical.json"

# Every benchmark in the repository (slow; exhibits log their tables).
bench-all:
	$(GO) test -bench=. -benchmem ./...

# Full test suite under the race detector (the experiment stack fans
# simulation jobs out over a worker pool).
race:
	$(GO) test -race ./...

# Regenerate every paper exhibit at the recorded EXPERIMENTS.md scale.
results:
	$(GO) run ./cmd/chimerasim -v all | tee results_full.txt

# Quick pass over every exhibit, also refreshing the canonical trace
# artifact referenced from EXPERIMENTS.md and docs/observability.md.
quick-results:
	$(GO) run ./cmd/chimerasim -quick -trace trace_canonical.json all

# Documentation gates: every example must build, the observability,
# server and lint packages (whose APIs docs/observability.md,
# docs/server.md and docs/static-analysis.md document) must not export
# undocumented symbols, and the static-analysis page must stay
# cross-linked from README and DESIGN.
docs-check:
	$(GO) build ./examples/...
	$(GO) run ./cmd/doccheck ./internal/trace ./internal/metrics ./internal/server ./internal/server/client ./internal/lint ./internal/faults ./internal/jobspec ./internal/replay ./internal/cluster ./internal/sched ./internal/sched/predict
	@test -f docs/static-analysis.md || { echo "docs/static-analysis.md is missing"; exit 1; }
	@test -f docs/faults.md || { echo "docs/faults.md is missing"; exit 1; }
	@test -f docs/jobs.md || { echo "docs/jobs.md is missing"; exit 1; }
	@test -f docs/performance.md || { echo "docs/performance.md is missing"; exit 1; }
	@grep -q "docs/static-analysis.md" README.md || { echo "README.md does not link docs/static-analysis.md"; exit 1; }
	@grep -q "static-analysis.md" DESIGN.md || { echo "DESIGN.md does not link docs/static-analysis.md"; exit 1; }
	@grep -q "jobs.md" docs/server.md || { echo "docs/server.md does not link docs/jobs.md"; exit 1; }
	@grep -q "jobspec" EXPERIMENTS.md || { echo "EXPERIMENTS.md does not reference the jobspec layer"; exit 1; }
	@grep -q "docs/performance.md" README.md || { echo "README.md does not link docs/performance.md"; exit 1; }
	@grep -q "performance.md" DESIGN.md || { echo "DESIGN.md does not link docs/performance.md"; exit 1; }
	@grep -q "performance.md" docs/observability.md || { echo "docs/observability.md does not link docs/performance.md"; exit 1; }
	@grep -q "static-analysis.md" docs/performance.md || { echo "docs/performance.md does not link docs/static-analysis.md"; exit 1; }
	@grep -q "chimera:hot" docs/static-analysis.md || { echo "docs/static-analysis.md does not document the //chimera:hot contract"; exit 1; }
	@grep -q "hotalloc" DESIGN.md || { echo "DESIGN.md does not describe the hotalloc analyzer"; exit 1; }
	@grep -q "jobspec" DESIGN.md || { echo "DESIGN.md does not reference the jobspec layer"; exit 1; }
	@grep -q "jobspec" docs/paper-map.md || { echo "docs/paper-map.md does not reference the jobspec layer"; exit 1; }
	@grep -q "performance.md" docs/paper-map.md || { echo "docs/paper-map.md does not reference docs/performance.md"; exit 1; }
	@test -f docs/cluster.md || { echo "docs/cluster.md is missing"; exit 1; }
	@grep -q "cluster.md" docs/server.md || { echo "docs/server.md does not link docs/cluster.md"; exit 1; }
	@grep -q "docs/cluster.md" README.md || { echo "README.md does not link docs/cluster.md"; exit 1; }
	@test -f docs/scheduling.md || { echo "docs/scheduling.md is missing"; exit 1; }
	@grep -q "scheduling.md" docs/server.md || { echo "docs/server.md does not link docs/scheduling.md"; exit 1; }
	@grep -q "scheduling.md" docs/jobs.md || { echo "docs/jobs.md does not link docs/scheduling.md"; exit 1; }
	@grep -q "scheduling.md" docs/observability.md || { echo "docs/observability.md does not link docs/scheduling.md"; exit 1; }

# End-to-end service smoke: boot chimerad on a random port, drive the
# full client path (submit, poll, cancel, scrape /metrics), then SIGTERM
# and assert a graceful drain. See docs/server.md.
serve-smoke:
	$(GO) build -o bin/chimerad ./cmd/chimerad
	$(GO) run ./cmd/servesmoke -bin bin/chimerad

# End-to-end record → replay → diff smoke: boot chimerad with -record,
# drive a mixed campaign, drain, then replay the trace three times (once
# with timing faults armed) and require byte-identical reports. See
# docs/jobs.md.
replay-smoke:
	$(GO) build -o bin/chimerad ./cmd/chimerad
	$(GO) build -o bin/chimerareplay ./cmd/chimerareplay
	$(GO) run ./cmd/replaysmoke -daemon bin/chimerad -replay bin/chimerareplay

# End-to-end fleet smoke: boot two chimerad replicas (peer cache armed)
# plus a chimerafront on random ports, drive a duplicate-heavy workload
# through the front and check the fleet-as-one-cache arithmetic, then a
# chaos leg that arms one replica's HTTP fault plane and SIGTERMs it
# mid-run — the front must fail its ring range over with zero failed
# jobs. See docs/cluster.md.
fleet-smoke:
	$(GO) build -o bin/chimerad ./cmd/chimerad
	$(GO) build -o bin/chimerafront ./cmd/chimerafront
	$(GO) run ./cmd/fleetsmoke -chimerad bin/chimerad -front bin/chimerafront

# Fuzz the kernel-IR parser for 30 seconds.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 30s ./internal/kernelir/

# CI fuzz gate: every fuzz target for 20 seconds each. Checked-in seed
# corpora live under each package's testdata/fuzz/; anything the fuzzer
# newly discovers in these short runs stays in the local build cache.
FUZZTIME ?= 20s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/kernelir/
	$(GO) test -run '^$$' -fuzz FuzzFlushSoundness -fuzztime $(FUZZTIME) ./internal/funcsim/
	$(GO) test -run '^$$' -fuzz FuzzEventQ -fuzztime $(FUZZTIME) ./internal/eventq/
	$(GO) test -run '^$$' -fuzz FuzzPlanIO -fuzztime $(FUZZTIME) ./internal/planio/
	$(GO) test -run '^$$' -fuzz FuzzAdmissionOrder -fuzztime $(FUZZTIME) ./internal/sched/

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/idempotence
	$(GO) run ./examples/realtime FWT 10000
	$(GO) run ./examples/multiprogram LUD MUM
	$(GO) run ./examples/tracing SAD

clean:
	$(GO) clean ./...
