# Build/CI entry points. `make ci` is the gate: vet plus the full test
# suite under the race detector (the sweep runner is concurrent).
GO ?= go

.PHONY: all build test race vet fmt ci parity determinism invariants fuzz-smoke mutants service-race sim-race chaos metrics-lint staticcheck govulncheck bench bench-test bench-all sweep sweep-full clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt fails when a tracked Go file is not gofmt-clean. It checks tracked
# files only, so build outputs under .bench_build/ are never scanned.
fmt:
	test -z "$$(gofmt -l $$(git ls-files '*.go'))"

# The heavy simulation shape tests skip themselves under -race (they
# validate numerics, not concurrency, and are 10x+ slower instrumented);
# the runner's concurrency is still exercised end to end by the tests in
# experiments/runner_test.go. `ci` therefore runs both the plain suite
# and the race-instrumented one.
race:
	$(GO) test -race ./...

ci: fmt vet staticcheck govulncheck test race service-race sim-race chaos metrics-lint parity determinism invariants fuzz-smoke bench-test

# service-race runs the hvcd service integration suite alone under the
# race detector: concurrent clients submitting/watching/cancelling jobs
# against a live worker pool is the most race-prone surface in the repo,
# so it gets its own CI line even though `race` also covers it.
service-race:
	$(GO) test -race -count=1 ./internal/service/...

# chaos runs the deterministic service-chaos suite under the race
# detector: seeded store write faults (fail/tear/bit-flip), jobs blowing
# their deadlines and mid-stream client disconnects, each asserting no
# corrupt record is served, no watcher deadlocks, and the daemon
# converges back to healthy.
chaos:
	$(GO) test -race -count=1 ./internal/service/chaos

# metrics-lint boots an in-process daemon, runs jobs through it, scrapes
# GET /metrics as a Prometheus client would and validates the exposition
# is well-formed (TYPE lines, name grammar, cumulative le buckets, +Inf
# == _count) with the repo's own parser — no external tooling required.
metrics-lint:
	$(GO) test -run TestMetricsLint -count=1 ./internal/service

# sim-race runs the parallel run-loop parity test under the race
# detector at two scheduler widths: narrow (GOMAXPROCS=2 — maximal
# token-ring handoff contention, workers constantly preempting each
# other) and wide (GOMAXPROCS=8 — every per-core worker goroutine truly
# parallel). `race` already covers the test at the default width; these
# two pins keep both extremes exercised.
sim-race:
	GOMAXPROCS=2 $(GO) test -race -count=1 -run TestParallelRunMatchesSerial ./internal/sim
	GOMAXPROCS=8 $(GO) test -race -count=1 -run TestParallelRunMatchesSerial ./internal/sim

# staticcheck/govulncheck run when the tools are installed and skip with a
# notice otherwise — the build environment is intentionally hermetic (no
# network, no toolchain downloads), so their absence must not fail ci.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck: not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck: not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# parity runs the golden refactor gates on their own: every
# organization's full stat table, and every interval of its timeline runs,
# must stay byte-identical to the recorded golden files, at jobs=1 and
# jobs=8.
parity:
	$(GO) test -run 'TestGoldenParity|TestGoldenTimelines' -count=1 ./experiments

# determinism runs every registered experiment at Quick scale with one
# sweep worker and with eight, and fails unless the two outputs are
# byte-identical once the wall-time ("completed in") lines are stripped:
# no result may depend on the worker count. The outputs stay in the
# printed temporary directory when they differ.
determinism:
	@dir=$$(mktemp -d) && echo "determinism: $$dir" && \
	$(GO) build -o $$dir/tablegen ./cmd/tablegen && \
	$$dir/tablegen -exp all -jobs 1 > $$dir/jobs1.out && \
	$$dir/tablegen -exp all -jobs 8 > $$dir/jobs8.out && \
	grep -v "completed in" $$dir/jobs1.out > $$dir/jobs1.txt && \
	grep -v "completed in" $$dir/jobs8.out > $$dir/jobs8.txt && \
	diff $$dir/jobs1.txt $$dir/jobs8.txt && \
	rm -rf $$dir

# invariants runs the fault-injection suite on its own: every
# organization under every fault type with the runtime invariant checker
# attached, plus the seeded-determinism golden.
invariants:
	$(GO) test -count=1 ./internal/fault
	$(GO) test -run 'TestGoldenFaultSweep|TestCheckpointResume' -count=1 ./experiments

# fuzz-smoke gives each fuzz target a short randomized budget on top of
# its checked-in corpus — enough to catch regressions in the parsing and
# encoding invariants without turning CI into a fuzzing campaign.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzPTEEncodeDecode -fuzztime=10s ./internal/pagetable
	$(GO) test -run=NONE -fuzz=FuzzMapLookupAgree -fuzztime=10s ./internal/pagetable
	$(GO) test -run=NONE -fuzz=FuzzMapRangeMatchesMap -fuzztime=10s ./internal/pagetable
	$(GO) test -run=NONE -fuzz=FuzzLeafRunsMatchWords -fuzztime=10s ./internal/pagetable
	$(GO) test -run=NONE -fuzz=FuzzStoreRecord -fuzztime=10s ./internal/service/store
	$(GO) test -run=NONE -fuzz=FuzzJobSpec -fuzztime=10s ./internal/service
	$(GO) test -run=NONE -fuzz=FuzzSubmitHandler -fuzztime=10s ./internal/service
	$(GO) test -run=NONE -fuzz=FuzzCacheMatchesLRUModel -fuzztime=10s ./internal/cache

# mutants is the mutation check: each mutants/*.patch breaks one behaviour
# and names, in its header, the package and the test that must catch it.
# mutants/run.sh applies every patch to a temporary copy of the repository
# and fails unless each mutant builds and its test fails. It compiles the
# module once per mutant, so it is not part of ci; run it on any change
# that claims byte-identical behaviour. A surviving mutant calls for a new
# test, never for dropping the patch.
mutants:
	bash mutants/run.sh

# bench runs the repository benchmark (bench/, see bench/README.md) once
# on every workload BENCHMARK.json declares, with tracing off: each run
# prints its end-to-end metrics as the last line of standard output.
BENCH_WORKLOADS := $(shell sed -n 's/.*{"name": "\([^"]*\)", "why".*/\1/p' BENCHMARK.json)

bench:
	@for w in $(BENCH_WORKLOADS); do \
		bash bench/run.sh --workload $$w --seed 1 --seconds 10 --trace 0 || exit 1; \
	done

# bench-test runs the benchmark module's own tests. bench/ is a separate
# module (bench/go.mod), so `go test ./...` never builds it; this target
# catches a root API change that breaks the benchmark. GOWORK=off matches
# bench/run.sh.
bench-test:
	cd bench && GOWORK=off $(GO) test -count=1 .

bench-all:
	$(GO) test -run=NONE -bench=. -benchmem .

# sweep regenerates every table/figure at Quick scale on all cores;
# sweep-full runs the paper-length windows.
sweep:
	$(GO) run ./cmd/tablegen -exp all

sweep-full:
	$(GO) run ./cmd/tablegen -exp all -full

# bench/run.sh builds into .bench_build/.
clean:
	rm -rf .bench_build
