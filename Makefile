GO ?= go

.PHONY: all build fmt vet locusvet test flakegate race invariants bench benchonce benchjson benchdiff benchmarkcheck examplesmoke workloadsmoke profile chaos ci

all: ci

build:
	$(GO) build ./...

# fmt fails when any file is not gofmt-clean (it lists them); fix with
# `gofmt -w`.
fmt:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }

vet:
	$(GO) vet ./...

# locus-vet is this repository's own analyzer suite (cmd/locus-vet),
# eight analyzers in three tiers: syntactic (the forbidden-call table,
# whose rows report as simclock, rawcall and atomic; uncheckedcall;
# panicdiscipline), intraprocedural dataflow (pageleak, inodealias),
# and interprocedural summaries over the module's one call graph (the
# lock walk, reporting lockorder and blockinglock; maporder;
# sentinelerr), plus the suppression audits (vet-allow reasons,
# staleallow). Always a full whole-module run (about 1.5 s); ci.yml
# runs the same with -json, whose report tallies findings and allows
# per analyzer.
locusvet:
	$(GO) run ./cmd/locus-vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# flakegate runs the concurrent-writer test 2,000 times (about 3 s):
# sixteen writers on four sites create in one directory, so every
# directory update waits at the CSS for the writer slot and every open
# polls the using site last. It failed about 1 run in 1,000 while both
# were wall-time retry loops.
flakegate:
	$(GO) test -count=2000 -run TestConcurrentWritersDifferentFilesAcrossSites ./internal/fs

# invariants runs the suite with the runtime assertion layer compiled
# in (internal/lint/invariant): version-vector dominance on propagation
# and shadow-page commit/free checks in storage.
invariants:
	$(GO) test -tags locusinvariants ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# benchonce runs every benchmark of every package for one iteration,
# tests skipped: a benchmark is compiled by `go test` but never run, so
# one that panics or fails on its set-up rots unnoticed until somebody
# needs its number (about 2 s).
benchonce:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# benchjson regenerates the committed perf baseline artifacts.
benchjson:
	$(GO) run ./cmd/locus-bench -json BENCH_locus.json > experiments_output.txt

# benchdiff is the perf-regression gate: re-run the full experiment
# suite (including the million-op E16 workload) and compare every
# deterministic counter against the committed BENCH_locus.json at
# exact equality. It then runs the wall-clock throughput gate: the E16
# workload at a moderate fixed op budget must sustain the ops/sec
# floor committed in BENCH_throughput.json (10,000 ops/wall-sec, 25%
# tolerance; the slowest of three runs measured 15.9k when it was set).
# Regenerate the counter baseline with `make benchjson` when a
# protocol change is intended; re-measure the throughput floor with
# `go run ./cmd/locus-bench -workload -workload-ops 20000`.
benchdiff:
	$(GO) run ./cmd/benchdiff

# benchmarkcheck vets and tests the repository benchmark. benchmark/ is
# its own module (repro/benchmark, replace repro => ../), so the root
# `go build ./... && go test ./...` does not compile it: an API change
# here would otherwise break it unnoticed.
benchmarkcheck:
	cd benchmark && $(GO) vet ./... && $(GO) test -count=1 ./...

# examplesmoke runs every program under examples/ and requires each to
# exit 0: `go build ./...` compiles them but nothing else runs them, so
# one whose walkthrough stops working would rot unnoticed (about 2 s).
examplesmoke:
	@for d in examples/*/; do echo "go run ./$$d"; $(GO) run ./$$d > /dev/null || exit 1; done

# workloadsmoke runs the workload engine's own tests — histogram math,
# Zipf determinism, engine schedule determinism — the bench harness's
# tests (registry, row shapes, cluster close and counter sum, JSON
# round trip) and the experiment shape assertions including sized E16,
# under the race detector with the runtime invariant layer (including
# page-pool poison-on-put) compiled in.
workloadsmoke:
	$(GO) test -race -tags locusinvariants -count=1 ./internal/workload ./internal/bench
	$(GO) test -race -tags locusinvariants -run TestExperimentTables -count=1 .

# profile captures CPU and heap pprof data for a 60k-op workload run:
# the workflow that found the directory-decode hot path documented in
# DESIGN.md. Inspect with `go tool pprof cpu.prof` / `mem.prof`.
profile:
	$(GO) run ./cmd/locus-bench -workload -workload-ops 20000 -cpuprofile cpu.prof -memprofile mem.prof

# chaos runs the seeded chaos harness (internal/chaos) on its pinned
# seeds — the workload-only regimes plus TestChaosProcSeeds, which adds
# the process-level adversarial plane (remote run, cross-site signals,
# pipes, migration, nested transactions) — with the race detector and
# the runtime invariant layer both enabled. Any violation prints a
# one-line replay command (copy-paste it to reproduce byte-identically);
# set CHAOS_ARTIFACT_DIR to also write the failing op log to a file.
chaos:
	$(GO) test -run TestChaos -race -tags locusinvariants -count=1 ./internal/chaos

ci: build fmt vet locusvet test flakegate race invariants benchonce examplesmoke workloadsmoke benchmarkcheck benchdiff chaos
