# Chimera reproduction — build, test and evaluation targets.

GO ?= go

# Pinned staticcheck release (supports the go.mod language version).
# CI installs it; locally `make lint` uses it when present and says so
# when not, since offline containers cannot fetch it.
STATICCHECK_VERSION ?= 2025.1.1

.PHONY: all build test short cover bench bench-all benchdiff verify-identical verify-full chaos race results quick-results fuzz fuzz-smoke examples vet lint docs-check smoke clean

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static-analysis gate (see docs/static-analysis.md): gofmt (any file
# `gofmt -l` prints fails), go vet, the project's own chimeravet suite
# (determinism, sim-clock, context-flow and schema invariants), the
# negative selftest that proves the fixture corpus still fails, and a
# pinned staticcheck when installed.
lint:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then echo "gofmt -l reports unformatted files:"; echo "$$unformatted"; exit 1; fi
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

# field ENTRY,N,SEP: the Nth SEP-separated field of a list entry.
field = $(word $(2),$(subst $(3), ,$(1)))

# bench_groups PREFIX: run every group into PREFIX<name>.json.
define bench_groups
$(foreach g,$(BENCH_GROUPS),$(GO) test -run '^$$' -bench '$(call field,$(g),3,:)' -benchmem -count=1 $(call field,$(g),2,:) | $(GO) run ./cmd/benchjson -out $(1)$(call field,$(g),1,:).json
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
	$(GO) run ./cmd/benchdiff $(foreach g,$(BENCH_GROUPS),BENCH_$(call field,$(g),1,:).json $(BENCHDIFF_DIR)/$(call field,$(g),1,:).json)

# Metamorphic identity gate: the quick exhibit sweep must be
# bit-reproducible (two runs byte-identical) and must still match the
# checked-in quick tables (results_quick.txt, every exhibit) and
# canonical trace (one traced scenario) — the proof that perf work
# (pooling, batching, queue swaps, shared warm-ups) changed no
# observable behavior. The second sweep runs on one worker with the
# fused multiply-add math kernels off (math.Exp switches to an FMA
# polynomial at run time on CPUs with AVX and FMA, and every fresh
# block's CPI draw calls it), so the gate also sees a dependence on
# worker count, on which run computes a shared warm-up, or on the
# host's FMA. Tables are stdout only; the trace summary line goes to
# stderr.
VERIFY_DIR ?= /tmp/chimera-verify
verify-identical:
	mkdir -p $(VERIFY_DIR)/a $(VERIFY_DIR)/b
	$(GO) run ./cmd/chimerasim -quick -trace trace.json all > $(VERIFY_DIR)/a/results.txt && mv trace.json $(VERIFY_DIR)/a/trace.json
	GODEBUG=cpu.fma=off $(GO) run ./cmd/chimerasim -quick -j 1 -trace trace.json all > $(VERIFY_DIR)/b/results.txt && mv trace.json $(VERIFY_DIR)/b/trace.json
	cmp $(VERIFY_DIR)/a/results.txt $(VERIFY_DIR)/b/results.txt
	cmp $(VERIFY_DIR)/a/trace.json $(VERIFY_DIR)/b/trace.json
	cmp $(VERIFY_DIR)/a/results.txt results_quick.txt
	cmp $(VERIFY_DIR)/a/trace.json trace_canonical.json
	@echo "verify-identical: two quick sweeps (the second at -j 1 without FMA) byte-identical and equal to results_quick.txt and trace_canonical.json"

# Full-scale identity gate: every exhibit at the recorded EXPERIMENTS.md
# scale must print exactly the checked-in results_full.txt. Quick
# tables cannot show a change that only the full windows reach. About
# a minute on two cores. Never re-record results_full.txt
# (`make results`) to make it pass.
verify-full:
	mkdir -p $(VERIFY_DIR)
	$(GO) run ./cmd/chimerasim -j 2 all > $(VERIFY_DIR)/full.txt
	cmp $(VERIFY_DIR)/full.txt results_full.txt
	@echo "verify-full: the full-scale sweep is byte-identical to results_full.txt"

# Fault-plane invariant gate (cmd/chimerachaos, docs/faults.md): two
# seeded chaos campaigns against an in-process chimerad must each hold
# every invariant (exit 0), print byte-identical reports, and match the
# checked-in chaos_report.txt. Never re-record that file to make this
# pass; a deliberate change to the fault plane or the campaign is the
# only reason to.
CHAOS_DIR ?= /tmp/chimera-chaos
chaos:
	mkdir -p $(CHAOS_DIR)
	$(GO) build -o $(CHAOS_DIR)/chimerachaos ./cmd/chimerachaos
	$(CHAOS_DIR)/chimerachaos -seed 1 -jobs 200 > $(CHAOS_DIR)/a.txt || { cat $(CHAOS_DIR)/a.txt; exit 1; }
	$(CHAOS_DIR)/chimerachaos -seed 1 -jobs 200 > $(CHAOS_DIR)/b.txt || { cat $(CHAOS_DIR)/b.txt; exit 1; }
	cmp $(CHAOS_DIR)/a.txt $(CHAOS_DIR)/b.txt
	cmp $(CHAOS_DIR)/a.txt chaos_report.txt
	@echo "chaos: two campaigns held every invariant, byte-identical to each other and to chaos_report.txt"

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

# Quick pass over every exhibit, refreshing the quick tables
# (results_quick.txt) and the canonical trace artifact referenced from
# EXPERIMENTS.md and docs/observability.md — the two files
# verify-identical pins. Run it only for a deliberate behaviour change.
quick-results:
	$(GO) run ./cmd/chimerasim -quick -trace trace_canonical.json all > results_quick.txt

# Documentation gates: every example must build, no package of the
# module may export an undocumented symbol, the pages must stay
# cross-linked, and the recorded full-scale tables must carry the same
# exhibit titles, in the same order, as the quick tables (which
# verify-identical proves cover every exhibit). Each DOC_LINKS entry is
# FILE=TEXT: FILE must exist and contain TEXT (`=` separates because
# chimera:hot holds a colon).
DOC_LINKS = \
	README.md=docs/static-analysis.md \
	DESIGN.md=static-analysis.md \
	docs/server.md=jobs.md \
	EXPERIMENTS.md=jobspec \
	README.md=docs/performance.md \
	DESIGN.md=performance.md \
	docs/observability.md=performance.md \
	docs/performance.md=static-analysis.md \
	docs/static-analysis.md=chimera:hot \
	DESIGN.md=hotalloc \
	DESIGN.md=jobspec \
	docs/paper-map.md=jobspec \
	docs/paper-map.md=performance.md \
	docs/server.md=cluster.md \
	README.md=docs/cluster.md \
	docs/server.md=scheduling.md \
	docs/jobs.md=scheduling.md \
	docs/observability.md=scheduling.md \
	docs/faults.md=server.md \
	docs/cluster.md=server.md \
	docs/scheduling.md=server.md

docs-check:
	$(GO) build ./examples/...
	$(GO) run ./cmd/doccheck $$($(GO) list -f '{{.Dir}}' ./...)
	@$(foreach l,$(DOC_LINKS),grep -qF '$(call field,$(l),2,=)' $(call field,$(l),1,=) || { echo "docs-check: $(call field,$(l),1,=) does not mention $(call field,$(l),2,=)"; exit 1; };)
	@full=$$(grep '^== .* ==$$' results_full.txt); quick=$$(grep '^== .* ==$$' results_quick.txt); \
	[ -n "$$quick" ] && [ "$$full" = "$$quick" ] || { echo "docs-check: results_full.txt's exhibit titles differ from results_quick.txt's"; exit 1; }

# End-to-end smoke of the real binaries (cmd/smoke): the serve, replay
# and fleet scenarios boot chimerad, chimerafront and chimerareplay on
# random ports, drive them over the wire, and require every process to
# drain gracefully on one SIGTERM. See docs/server.md.
smoke:
	$(GO) build -o bin/ ./cmd/chimerad ./cmd/chimerafront ./cmd/chimerareplay
	$(GO) run ./cmd/smoke -bin bin

# Fuzz the kernel-IR parser for 30 seconds.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 30s ./internal/kernelir/

# CI fuzz gate: every fuzz target for 20 seconds each. Checked-in seed
# corpora live under each package's testdata/fuzz/; anything the fuzzer
# newly discovers in these short runs stays in the local build cache.
# FuzzFrontSubmit talks to a loopback replica, so net/http's goroutines
# make coverage vary between runs of one input; minimizing such an
# input never converges and would use the whole 60 s default, hence its
# short -fuzzminimizetime.
FUZZTIME ?= 20s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/kernelir/
	$(GO) test -run '^$$' -fuzz FuzzFlushSoundness -fuzztime $(FUZZTIME) ./internal/funcsim/
	$(GO) test -run '^$$' -fuzz FuzzEventQ -fuzztime $(FUZZTIME) ./internal/eventq/
	$(GO) test -run '^$$' -fuzz FuzzPlanIO -fuzztime $(FUZZTIME) ./internal/planio/
	$(GO) test -run '^$$' -fuzz FuzzAdmissionOrder -fuzztime $(FUZZTIME) ./internal/sched/
	$(GO) test -run '^$$' -fuzz FuzzSpec -fuzztime $(FUZZTIME) ./internal/jobspec/
	$(GO) test -run '^$$' -fuzz FuzzReadTrace -fuzztime $(FUZZTIME) ./internal/jobspec/
	$(GO) test -run '^$$' -fuzz FuzzRunBlocks -fuzztime $(FUZZTIME) ./internal/smsim/
	$(GO) test -run '^$$' -fuzz FuzzWarmupFork -fuzztime $(FUZZTIME) ./internal/engine/
	$(GO) test -run '^$$' -fuzz FuzzFrontSubmit -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/cluster/

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/idempotence
	$(GO) run ./examples/realtime FWT 10000
	$(GO) run ./examples/multiprogram LUD MUM
	$(GO) run ./examples/tracing SAD

clean:
	$(GO) clean ./...
