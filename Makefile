# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# commands; staticcheck and govulncheck additionally run there with
# pinned versions and are invoked here only if already on PATH.

GO ?= go

.PHONY: all build test race bench-record bench-compare lint lint-report vet trace loc

all: build lint test

build:
	$(GO) build ./...

# -short runs every mechanism end to end at smoke scale.
test:
	$(GO) test -short -timeout 10m ./...

# Megascale's TestMegaScale* cells have no -short skip, so this also runs
# the multi-shard window engine under the detector.
race:
	$(GO) test -race -short -timeout 30m ./...

# The benchmark (BENCHMARK.json, bench/README.md): four host-time
# workloads, end-to-end metrics with regression bounds, results in
# bench/out/result.json. BENCH_ARGS passes flags through, e.g.
# `make bench-record BENCH_ARGS="-trace 1"` for the per-layer ladder.
# Performance claims rest on this.
BENCH_ARGS ?=
bench-record:
	bash bench/run.sh $(BENCH_ARGS)

# Delta table between two bench-record result files, bounds applied; exits
# 1 on a regression: `make bench-compare OLD=parent.json NEW=change.json`.
OLD ?=
NEW ?=
bench-compare:
	@test -n "$(OLD)" && test -n "$(NEW)" || { echo "usage: make bench-compare OLD=old.json NEW=new.json"; exit 2; }
	$(GO) run ./bench -compare $(OLD) $(NEW)

vet:
	$(GO) vet ./...

# simlint enforces the determinism, hot-path, isolation, and hook
# invariants (DESIGN.md §9, "Static invariants"). Zero non-suppressed
# findings required. LINT_ANALYZERS selects a comma-separated subset
# (e.g. `make lint LINT_ANALYZERS=shardsafe,blockfree`); unknown names
# fail rather than silently skipping enforcement.
LINT_ANALYZERS ?=
lint: vet
	$(GO) run ./cmd/simlint $(if $(LINT_ANALYZERS),-analyzers $(LINT_ANALYZERS)) ./...
	@command -v staticcheck >/dev/null 2>&1 && staticcheck ./... || echo "staticcheck not installed; CI runs it pinned"

# The full suite plus the //simlint:ignore inventory and the wall-clock
# budget the CI job enforces: one process, one SSA/points-to build shared
# by all seven analyzers, under 60s even on a cold build cache.
lint-report:
	$(GO) run ./cmd/simlint -ignores -budget 60s ./...

# Non-test Go line counts (comments included) for the packages ROADMAP's
# "One of each" item tracks; CI echoes this so the count is on record per
# commit. cmd/replbench is listed beside internal/core (outside the
# tracked total) so lines moved between the CLI and core can be neither
# booked as a saving nor hidden as a cost; internal/hbase and
# internal/cluster are listed outside it too, so the total stays the series
# it has been since PR 14. internal/replica (PR 22) is inside it: what moved
# there out of cassandra and objstore still counts.
loc:
	@count() { find $$1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l; }; \
	total=0; for d in sim core cassandra objstore replica ring; do \
		n=$$(count internal/$$d); \
		printf '%-20s %6d\n' internal/$$d $$n; total=$$((total + n)); \
	done; printf '%-20s %6d\n' total $$total; \
	printf '%-20s %6d\n%-20s %6d\n' cmd/replbench $$(count cmd/replbench) \
		core+replbench $$(($$(count internal/core) + $$(count cmd/replbench))); \
	for d in hbase cluster; do printf '%-20s %6d\n' internal/$$d $$(count internal/$$d); done

# Per-phase latency decomposition at smoke scale: tracebreak.csv holds the
# phase-share grid, trace.json one span-retaining cell in Chrome
# trace-event format (load into chrome://tracing or Perfetto).
trace:
	$(GO) run ./cmd/replbench -experiment tracebreak -short -o tracebreak.csv -trace-out trace.json
