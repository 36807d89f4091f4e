# Standard entry points for the swizzleqos reproduction.

GO ?= go

.PHONY: all check build test race vet fmt lint benchguard bench-arb serve-check perfbench staticcheck govulncheck bench experiments verify examples cover fuzz

all: build vet test

# Full local gate: build, vet, formatting, the in-repo invariant linter,
# tests, the race detector over the parallel sweep engine and everything
# layered on it, plus the optional linters (skipped with a notice when
# not installed).
check: build vet fmt lint staticcheck govulncheck test race

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The sweep runner fans simulations across goroutines; keep the race
# detector on the whole module, not just the runner package.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# In-repo invariant linter (stdlib-only, see DESIGN.md "Invariants"):
# the nine rules, from determinism and //ssvc:hotpath allocation-freedom
# to durability ordering, value ranges and taint barriers. Exceptions
# live in lint.allow with a justification each.
lint:
	$(GO) run ./cmd/ssvc-lint -strict ./...

# Rerun the steady-state engine benchmarks and fail if B/op or
# allocs/op regress past the recorded "after" values. Baselines layer:
# BENCH_bitplane.json overrides BENCH_baseline.json per benchmark and
# adds the idle-regime and arbitrate-kernel benches.
benchguard:
	$(GO) run ./cmd/ssvc-benchguard

# Perf gate for the word-parallel arbitration path (BENCH_bitplane.json):
# the bitplane/scalar equivalence fuzz seed corpus, a short-benchtime
# sweep of the arbitration and cycle-loop benchmarks, then the
# allocation benchguard. Fixed iteration counts keep the sweep fast and
# its allocation columns deterministic; ns/op here is informational
# (CI hardware is too noisy to gate on time).
bench-arb:
	$(GO) test ./internal/circuit/ -run 'FuzzBitplaneEquivalence'
	$(GO) test -run='^$$' -bench='BitplaneArbitrate|SwitchCycleRecycled|SwitchCycleIdle|MeshCycleRecycled|ComposeCycleRecycled' \
		-benchmem -benchtime=10000x ./internal/core/ ./internal/switchsim/ ./internal/mesh/ ./internal/compose/
	$(GO) run ./cmd/ssvc-benchguard

# End-to-end crash-recovery gate for the control plane: run the scripted
# ssvc-serve scenario uninterrupted, SIGKILL a paced copy mid-run and
# resume it from its journal, then replay the journal offline — all
# three delivery traces and recovered summaries must be byte-identical
# (DESIGN.md "Control plane").
serve-check:
	sh scripts/serve_check.sh

# The repository benchmark (BENCHMARK.json): builds _perfbench from
# source and runs one workload. Pass the harness flags through ARGS, e.g.
#   make perfbench ARGS="--workload xbar64-sat --seed 1 --seconds 20 --trace 0"
perfbench:
	bash _perfbench/run.sh $(ARGS)

# Optional linters: run when present, skip with a notice otherwise. The
# container baseline has no network, so these must never try to install.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping"; \
	fi

# gofmt -l exits 0 even when files need formatting; fail explicitly so
# `make check` gates on formatting.
fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# One benchmark per paper table/figure; headline numbers as metrics.
# -run=^$ skips the unit tests so only benchmarks execute.
bench:
	$(GO) test -bench=. -benchmem -run='^$$' ./...

# Regenerate every table and figure at full length (EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/ssvc-bench -cycles 100000 -warmup 10000

# The paper's §4.1 wire-level verification.
verify:
	$(GO) run ./cmd/ssvc-verify -radix 4 -lanes 6 -classes
	$(GO) run ./cmd/ssvc-verify -radix 8 -lanes 16 -classes -trials 100000

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/basestation
	$(GO) run ./examples/interrupts
	$(GO) run ./examples/latencyfairness
	$(GO) run ./examples/planner

# Coverage with a floor: the build fails if total statement coverage
# drops below COVER_MIN (the tree sits comfortably above it; the floor
# catches a PR that lands a subsystem without tests).
COVER_MIN ?= 70
cover:
	$(GO) test -coverprofile=cover.out ./...
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVER_MIN)%)"; \
	awk "BEGIN { exit !($$total >= $(COVER_MIN)) }" || { \
		echo "coverage $$total% is below the $(COVER_MIN)% floor"; exit 1; \
	}

# Short fuzzing sessions for the fuzz targets.
fuzz:
	$(GO) test ./internal/core/ -fuzz FuzzSSVCGrantSequence -fuzztime 30s
	$(GO) test ./internal/core/ -fuzz FuzzThermRoundTrip -fuzztime 30s
	$(GO) test ./internal/fabric/ -fuzz FuzzBufferInvariants -fuzztime 30s
	$(GO) test ./internal/circuit/ -fuzz FuzzBitplaneEquivalence -fuzztime 30s
	$(GO) test ./cmd/ssvc-sim/ -fuzz FuzzScenarioParse -fuzztime 30s
