# One-command gates for this repository. `make check` is the bar every
# PR must clear: vet with a gofmt gate, build, the full test suite under
# the race detector — the race run is what proves the parallel
# experiment harness (experiments.RunAll) shares no hidden state — plus
# a short fuzz pass over the plan/trace parsers and a bounded schedule-
# exploration sweep (every healthy scenario clean, every known-bad
# fixture caught).

GO ?= go
FUZZTIME ?= 10s
EXPLORE_BUDGET ?= 200

# Packages with a minimum-coverage bar (see `make cover`).
COVER_PKGS = ./internal/sim ./internal/monitor ./internal/fault ./internal/cluster ./internal/eventq ./internal/sched ./internal/workload ./internal/workload/spec ./internal/workload/capacity
COVER_FLOOR = 75

.PHONY: check vet build test race bench ab fuzz-short explore cover knee loc

check: vet build race fuzz-short explore

# vet also fails when any Go file outside the benchmark's build
# directory is not gofmt-formatted, listing the offenders. gofmt comes
# from $(GO)'s own GOROOT so it formats exactly as the vetting toolchain
# does, and a missing or failing gofmt fails the gate instead of
# passing it with empty output.
vet:
	$(GO) vet ./...
	@unformatted=$$(find . -path ./.bench_build -prune -o -name '*.go' -print | xargs "$$($(GO) env GOROOT)/bin/gofmt" -l) || exit 1; \
	if [ -n "$$unformatted" ]; then echo "gofmt -l flags:"; echo "$$unformatted"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The exact bench gate, then the numbers. The hot-path allocs/op pin
# runs first: the event loop, ready queues, discard-sink tracing,
# timing-wheel schedule/cancel, batch admission and the park/resume
# handoff must stay allocation-free in steady state. The bench pin then
# runs the fixed-seed quick sweep — the T/F/R artifact set, the W-series
# load workloads, the C-series cluster fleets and the D-series
# resilience study, profiled — at several shard counts and requires its
# deterministic payload (every experiment's events, worlds, virtual time
# and scheduler accounting) to equal
# cmd/threadstudy/testdata/golden/bench-quick.json. Both gates are
# host-independent: they pass or fail the same way on any machine. The
# Go microbenchmarks and the sweep's record (wall time and events/sec
# included, written to .bench_build/bench.json) are measurements, not
# gates, except that the sweep fails on any nonzero accounting residue.
# Wall-clock comparisons come from `make ab`, on one machine. The
# S-series policy lab and the K-series capacity lab stay outside the
# sweep: a policy change must not move the pinned payload, and a K knee
# search's event count is a step function of the measured knee.
bench:
	$(GO) test -run TestHotPathAllocs ./internal/sim
	$(GO) test -count=1 -run TestBenchShardDeterminism ./cmd/threadstudy
	$(GO) test -bench=. -benchmem -run='^$$'
	$(GO) test -bench=. -benchmem -run='^$$' ./internal/sim ./internal/eventq
	mkdir -p .bench_build
	$(GO) run ./cmd/threadstudy -bench .bench_build/bench.json

# Same-machine A/B of the perfbench workloads: BASE (any git revision)
# built in a temporary git worktree against the working tree, 10
# alternating pairs per BENCHMARK.json workload at its run_seconds.
# Prints each end-to-end metric's median ratio and the base's
# interquartile spread; fails when a candidate median is worse than the
# metric's BENCHMARK.json bound or more operations fail.
ab:
	@test -n "$(BASE)" || { echo "usage: make ab BASE=<rev>"; exit 2; }
	bash scripts/ab.sh "$(BASE)"

# Short coverage-guided fuzzing of the attacker-facing parsers — JSON
# fault plans, JSON workload specs, and the binary trace codec (decode
# robustness + encode/decode round trip) — plus two differentials:
# random op streams must keep the hierarchical timing wheel
# byte-for-byte equivalent to the naive sorted-list event queue, and
# random sample streams must keep the two-heap running quantile equal to
# LatencyRecorder's sorted nearest-rank percentile after every sample.
fuzz-short:
	$(GO) test -run='^$$' -fuzz FuzzPlanJSON -fuzztime $(FUZZTIME) ./internal/fault
	$(GO) test -run='^$$' -fuzz FuzzSpecJSON -fuzztime $(FUZZTIME) ./internal/workload/spec
	$(GO) test -run='^$$' -fuzz FuzzRead'$$' -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run='^$$' -fuzz FuzzEncodeDecode -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run='^$$' -fuzz FuzzWheelDifferential -fuzztime $(FUZZTIME) ./internal/eventq
	$(GO) test -run='^$$' -fuzz FuzzRunningQuantile -fuzztime $(FUZZTIME) ./internal/stats

# Bounded systematic schedule exploration over all registered scenarios.
explore:
	$(GO) run ./cmd/schedcheck -budget $(EXPLORE_BUDGET)

# The K-series capacity sweep: ramp each configuration's offered load
# until its overload criterion trips, bisect to the knee, and land the
# schema-versioned knee records (with the full run summaries) in
# CAPACITY_PR10.json. Quick-scale: the full-scale knees come from
# `go run ./cmd/threadstudy -series k -json CAPACITY_PR10.json`.
knee:
	$(GO) run ./cmd/threadstudy -series k -quick -json CAPACITY_PR10.json

# Per-package coverage with a floor: every package in COVER_PKGS — the
# simulator kernel, monitors, fault injector, cluster, event queue,
# scheduling policies, and the workload engine with its spec and
# capacity packages — must stay above $(COVER_FLOOR)% statement coverage.
cover:
	@for pkg in $(COVER_PKGS); do \
		$(GO) test -covermode=atomic -coverprofile=/tmp/cover.out $$pkg >/dev/null || exit 1; \
		pct=$$($(GO) tool cover -func=/tmp/cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
		echo "coverage $$pkg: $$pct% (floor $(COVER_FLOOR)%)"; \
		awk -v p="$$pct" -v f="$(COVER_FLOOR)" \
			'BEGIN { if (p+0 < f+0) { print "coverage below floor"; exit 1 } }' || exit 1; \
	done

# The net non-test Go line count ROADMAP tracks: every non-test Go file
# outside the benchmark module and its build directory, comments
# included.
loc:
	@find . -name '*.go' -not -path './perfbench/*' -not -path './.bench_build/*' -not -name '*_test.go' | xargs cat | wc -l
