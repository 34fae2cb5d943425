# Local targets mirroring .github/workflows/ci.yml, so a green `make check`
# predicts a green CI run.

GO ?= go

.PHONY: build test test-short race-repeat fuzz bench bench-sessions bench-dynamic bench-lp bench-hot fmt fmt-check vet lint lint-internal lint-fixtures perfbench-check check loc serve-smoke session-smoke crash-smoke slo-smoke

build:
	$(GO) build ./...

# Full suite — the non-short CI lane (includes the ~7s experiment sweep).
test:
	$(GO) test ./...

# Fast racy lane — what the CI `check` job runs.
test-short:
	$(GO) test -race -short ./...

# Repeat-race lane — a CI `check` step. The tests of the state that
# concurrent repeats of one solve share (the decode memo, its pooled body
# buffers, the engine's flights and counters) run ten times under -race, so
# an interleaving one run misses gets nine more chances. About 15s on 2
# CPUs.
race-repeat:
	$(GO) test -race -count=10 -run 'SolveMemo|Coalescer|CounterIdentity' ./internal/server ./internal/engine

# Native fuzz targets, 10s each — a CI `check` step. FuzzProjectCappedSimplex
# feeds arbitrary float64 bit patterns (NaN and ±Inf included) to the LP's
# capped-simplex projection and checks it against its bisection reference.
# FuzzSessionApply decodes arbitrary bytes as a session events body and
# applies them to a small session, uncapped and capped, checking after every
# event that the value is finite and within 1e-9 of a full recompute and that
# the configuration stays valid. FuzzParseObjectives parses arbitrary -slo
# text and checks that every accepted objective is evaluable (0 < q < 1,
# positive threshold, window ≥ 12ms) and survives a String round trip.
# FuzzUnmarshalInstanceStrict decodes arbitrary bytes as an instance and
# checks that an accepted one is valid, has its declared user count and
# keeps its Fingerprint through a marshal round trip. FuzzReadFrames feeds
# arbitrary bytes to the WAL frame reader and checks that the frames it
# returns re-frame to a prefix of the input, which is the whole input unless
# a tear is reported at its end. FuzzResolveSolver resolves arbitrary
# "algo", "params" and size-cap selections the way solves, batch items,
# session creates and recovery do, and checks that an error comes with no
# solver, that two calls agree on the solver key, and that a capped solver's
# key carries the cap. FuzzSolveMemo posts arbitrary bytes to /v1/solve
# twice and checks that both answers agree (timings masked), that a body
# refused with any status but 200 is never stored in the decode memo, and
# that one answered 200 is. A failing input is saved under the package's
# testdata/fuzz/, where plain `go test` replays it.
fuzz:
	$(GO) test ./internal/lp -run='^$$' -fuzz='^FuzzProjectCappedSimplex$$' -fuzztime=10s
	$(GO) test ./internal/session -run='^$$' -fuzz='^FuzzSessionApply$$' -fuzztime=10s
	$(GO) test ./internal/telemetry -run='^$$' -fuzz='^FuzzParseObjectives$$' -fuzztime=10s
	$(GO) test ./internal/core -run='^$$' -fuzz='^FuzzUnmarshalInstanceStrict$$' -fuzztime=10s
	$(GO) test ./internal/store -run='^$$' -fuzz='^FuzzReadFrames$$' -fuzztime=10s
	$(GO) test ./internal/server -run='^$$' -fuzz='^FuzzResolveSolver$$' -fuzztime=10s
	$(GO) test ./internal/server -run='^$$' -fuzz='^FuzzSolveMemo$$' -fuzztime=10s

# Benchmark smoke: one iteration of every benchmark, no tests.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Session-table contention benchmark: snapshot reads through the manager's
# one table lock at 1/2/4/8 concurrent workers, written to
# BENCH_sessions.json. Each sub-benchmark raises GOMAXPROCS to its worker
# count, so the workers contend even on a 1-CPU runner; 500ms per
# sub-benchmark keeps the worker-count trend above run-to-run noise.
bench-sessions:
	$(GO) test ./internal/session -run='^$$' -bench='^BenchmarkManagerContention$$' -benchtime=500ms \
		| $(GO) run ./cmd/benchjson -o BENCH_sessions.json

# Dynamic hot-path benchmarks, written to BENCH_dynamic.json: per-event cost
# at 1k/10k users (core) of a join, a 2-pass rebalance, and an update read
# through the incremental value accumulator vs a full Evaluate rescan, with
# B/op and allocs/op; and one drift-repair cycle with dirty-component delta
# solving + warm starts vs a cold whole-instance re-solve (session). Two
# packages' tables feed one artifact; benchjson attributes each result to its
# package.
bench-dynamic:
	( $(GO) test ./internal/core -run='^$$' -bench='BenchmarkDynamicEvent' -benchtime=500ms -benchmem ; \
	  $(GO) test ./internal/session -run='^$$' -bench='BenchmarkRepairCycle' -benchtime=500ms ) \
		| $(GO) run ./cmd/benchjson -o BENCH_dynamic.json

# LP-layer benchmark, written to BENCH_lp.json: one op solves the structured
# LP relaxation of every component of 40 cold-solve-shaped groups with the
# default options svgicd runs. ns/op moves with the host; B/op and allocs/op
# do not, so an allocation regression in the LP shows as a diff here.
bench-lp:
	$(GO) test ./internal/core -run='^$$' -bench='^BenchmarkSolveRelaxation$$' -benchmem -benchtime=10x \
		| $(GO) run ./cmd/benchjson -o BENCH_lp.json

# Hot-solve benchmark, written to BENCH_hot.json: one op posts one of 32
# perfbench-shaped groups, each solved once before the timer, to the
# in-process /v1/solve handler, so its body is read into a pooled buffer,
# found in the decode memo (whose prepared instance is already validated and
# fingerprinted) and answered from the result cache. ns/op moves with the
# host; allocs/op does not, and B/op (the response and the request's
# plumbing, no body copy) moves by a few hundred bytes.
bench-hot:
	$(GO) test ./internal/server -run='^$$' -bench='^BenchmarkSolveHit$$' -benchmem -benchtime=4000x \
		| $(GO) run ./cmd/benchjson -o BENCH_hot.json

# -s (simplify) included: composite-literal and range simplifications are
# enforced, not just layout.
fmt:
	gofmt -s -w .

fmt-check:
	@out=$$(gofmt -s -l .); if [ -n "$$out" ]; then \
		echo "files need gofmt -s:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Static analysis — the CI lint lane: staticcheck (generic checks) plus the
# project's own analyzer suite (lint-internal). Deliberate suppressions carry
# //lint:ignore directives with a justification at the call site (never
# blanket -checks ignores), so both tools stay fully enabled. staticcheck
# skips with a notice when the binary is not installed locally; the version
# is pinned so a new upstream release cannot break every open PR overnight.
lint: lint-internal
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (CI runs it; locally:"; \
		echo "      go install honnef.co/go/tools/cmd/staticcheck@2025.1)"; \
	fi

# Project invariants — svgiclint (see docs/STATIC_ANALYSIS.md): solve outside
# session/manager locks, Clone before storing cloneable inputs, ctx threaded
# through serving paths, seeded randomness, no lock-order cycles, no
# untracked goroutines in serving packages. Driven through `go vet -vettool`
# so test compilation units are analyzed too. Zero deps:
# the driver builds from this module alone. The binary rebuilds only when an
# analyzer source file (fixtures excluded) or go.mod changes.
ANALYSIS_SRCS := $(shell find internal/analysis cmd/svgiclint -name '*.go' -not -path '*/testdata/*')

bin/svgiclint: $(ANALYSIS_SRCS) go.mod
	$(GO) build -o bin/svgiclint ./cmd/svgiclint

lint-internal: bin/svgiclint
	$(GO) vet -vettool=$$(pwd)/bin/svgiclint ./...

# Analyzer self-tests: every checker against its own deadlock/leak fixtures,
# plus the flow-engine and harness unit tests, under the race detector.
lint-fixtures:
	$(GO) test -race ./internal/analysis/...

# The benchmark module (perfbench/, which replaces github.com/svgic/svgic with
# this checkout): vet it and run its deterministic self-test, so a change to
# the public API that breaks `bash perfbench/run.sh` fails here first.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Non-test Go line count, the size a simplifying change is judged by: every
# .go file outside perfbench/, testdata/ and .bench_build/, minus _test.go
# files, per package directory and in total. A CI `check` step, report-only.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './perfbench/*' \
		-not -path '*/testdata/*' -not -path './.bench_build/*' -exec wc -l {} + \
		| awk '$$2 != "total" { d = $$2; sub(/\/[^/]*$$/, "", d); n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%6d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%6d total\n", t }'

# The smokes build both binaries: svgicload launches ./bin/svgicd as a child
# with the flags after its path (plus -addr), drives it, and fails unless the
# daemon drains and exits 0 on SIGTERM at the end.
#
# Serving smoke: fire a few hundred mixed-duplicate requests at a child
# svgicd. svgicload exits non-zero on any response status other than
# 200/429, and its stats line shows the cache + coalesce hit rates.
serve-smoke:
	$(GO) build -o bin/svgicd ./cmd/svgicd
	$(GO) build -o bin/svgicload ./cmd/svgicload
	./bin/svgicload -requests 300 -dup-frac 0.5 -conc 8 ./bin/svgicd -workers 2 -max-inflight 16

# Live-session smoke: datagen records a join/leave/update event trace, and
# svgicload -dynamic replays it into two sessions of a child svgicd (drift
# repair on a hot 50ms loop), then runs generated churn. It fails on any
# status other than the request's success status or 429, or a non-monotone
# session version. Both the trace (-seed/-event-seed) and the churn run
# (svgicload -seed, svgicd -seed for the solver) are explicitly seeded, so
# two CI runs replay byte-identical workloads.
session-smoke:
	$(GO) build -o bin/svgicd ./cmd/svgicd
	$(GO) build -o bin/svgicload ./cmd/svgicload
	$(GO) build -o bin/datagen ./cmd/datagen
	./bin/datagen -dataset timik -n 12 -m 30 -k 3 -seed 5 -event-seed 6 -events 40 -o bin/session-trace.json
	./bin/svgicload -dynamic -trace bin/session-trace.json -sessions 2 ./bin/svgicd -workers 2 -repair-interval 50ms
	./bin/svgicload -dynamic -sessions 4 -requests 200 -seed 9 ./bin/svgicd -workers 2 -repair-interval 50ms -seed 9

# SLO smoke: the adaptive-admission acceptance test against real load. A
# child svgicd serves an unattainable objective (p99 solve < 1ms) while
# svgicload storms it with the expensive exact solver; the SLO controller
# must observe the burn and reroute ip requests to avgd ("degraded":true),
# and -assert-slo-degrade fails the run unless /v1/stats shows degraded
# requests AND a bounded number of ladder transitions (degrading without
# flapping). Asserted via counters, not timing, so the lane is loadable on
# slow CI runners.
slo-smoke:
	$(GO) build -o bin/svgicd ./cmd/svgicd
	$(GO) build -o bin/svgicload ./cmd/svgicload
	./bin/svgicload -algo ip -requests 400 -conc 16 -dup-frac 0.2 -assert-slo-degrade \
		./bin/svgicd -algo ip -workers 2 -slo "p99 solve < 1ms over 2s"

# Crash smoke: the durability acceptance test against a REAL process.
# svgicload starts a child svgicd serving on a data directory, streams
# live-session churn, SIGKILLs the child mid-stream, restarts it on the same
# directory and asserts every recovered session serves exactly what an
# offline replay of its acknowledged event prefix produces — once under
# per-event fsync, once with fsync off (prefix consistency must hold under
# both; a hot 16-event snapshot cadence keeps compaction in the picture).
crash-smoke:
	$(GO) build -o bin/svgicd ./cmd/svgicd
	$(GO) build -o bin/svgicload ./cmd/svgicload
	rm -rf bin/crash-data-always bin/crash-data-off
	./bin/svgicload -dynamic -crash -sessions 4 -requests 240 -seed 11 \
		./bin/svgicd -data-dir bin/crash-data-always -fsync always -snapshot-every 16 -workers 2 -seed 11
	./bin/svgicload -dynamic -crash -sessions 4 -requests 240 -seed 12 \
		./bin/svgicd -data-dir bin/crash-data-off -fsync off -snapshot-every 16 -workers 2 -seed 12

check: fmt-check vet lint build test-short race-repeat fuzz perfbench-check
