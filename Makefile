GO ?= go

.PHONY: all build fmt vet locusvet test flakegate race invariants bench benchonce benchjson benchdiff benchmarkcheck examplesmoke workloadsmoke fuzzsmoke profile chaos ci

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
# six analyzers in three tiers: syntactic (the forbidden-call table,
# whose rows report as simclock, rawcall and atomic; uncheckedcall;
# panicdiscipline), intraprocedural dataflow (pageleak), and
# interprocedural summaries over the module's one call graph (the lock
# walk, reporting lockorder and blockinglock; maporder), plus the
# suppression audits (vet-allow reasons, staleallow). Each stays
# because a bug seeded for it passes every test (DESIGN.md §8). Always
# a full whole-module run (about 1.5 s); ci.yml runs the same with
# -json, whose report names the analyzers and tallies findings and
# allows per analyzer.
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
# were wall-time retry loops. It then runs the directory-slot wait test
# 200 times (about 2.5 s): the wait runs at the CSS on behalf of the site
# whose fs.dirop it serves, and must end when that site leaves. Then it
# runs the no-copy rename test 200 times (about 1 s): a site that stores
# no copy of /d opens /d/f by name while the CSS renames files through
# that name, each rename calling back the site's read delegation on /d
# before it commits (without delegations each look at /d is an exchange
# with the CSS), and every open must find what the name named while it
# ran. Then the concurrent revoke test 200 times (about 7 s): sites 2-4
# re-open and read a file under read delegations, site 3 from two
# goroutines, while site 1 commits new versions of it, and every read
# must find a version no older than the last commit finished before its
# open began, every revoke round ending. Then the own-link test 200 times
# (about 1 s): site 3 links and unlinks a file while it reads it under
# read delegations and site 2 commits new versions of it, with the same
# check. Then the directory-delegation listing test 200 times (about
# 7 s): sites 2 and 3 list /d, site 3 under a read delegation on it,
# while site 1 creates and unlinks there, and every listing must hold
# every name created, and no name unlinked, before it began. Then the
# commit-at-close test 200 times (about 2 s): sites 2 and 3 rewrite one
# replicated file, each close committing it, while sites 1 and 4 read
# it, and every read must find a version no older than the last close
# returned before its open began. Last the replica-move test 200 times
# (about 1 s): sites 2 and 4 read a file that never changes while site 1
# moves it between {3, 4} and {3}, so site 4's copy is retired under
# reads it serves, and every read must return the whole file or ErrStale.
flakegate:
	$(GO) test -count=2000 -run TestConcurrentWritersDifferentFilesAcrossSites ./internal/fs
	$(GO) test -count=200 -run TestDirUpdateWaitsForWriter ./internal/fs
	$(GO) test -count=200 -run TestDeferredLookUnderConcurrentRenames ./internal/fs
	$(GO) test -count=200 -run TestRevokeRoundsUnderConcurrentReopens ./internal/fs
	$(GO) test -count=200 -run TestOwnLinksUnderConcurrentReopens ./internal/fs
	$(GO) test -count=200 -run TestDirListingsUnderConcurrentUpdates ./internal/fs
	$(GO) test -count=200 -run TestCommitAtCloseUnderConcurrentOpens ./internal/fs
	$(GO) test -count=200 -run TestReadsUnderReplicaMoves ./internal/fs

# invariants runs the suite with the runtime assertion layer compiled
# in (internal/lint/invariant): version-vector dominance on propagation,
# shadow-page commit/free checks in storage, and the shared-inode net —
# the container's private twin of every committed inode, so a write
# through a shared *storage.Inode anywhere a test reaches panics at the
# inode's next use (no analyzer checks this). About 35 s on 2 vCPUs.
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

# fuzzsmoke fuzzes the directory decoders for 15 s from FuzzDecodeDir's
# seeds (internal/format): `go test` runs only the seeds, and the
# decoders are the trust boundary for bytes read from a torn read or a
# damaged pack. -fuzzminimizetime 20x keeps the workers fuzzing rather
# than minimizing each new input for a minute.
fuzzsmoke:
	$(GO) test -run '^$$' -fuzz FuzzDecodeDir -fuzztime 15s -fuzzminimizetime 20x ./internal/format

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

ci: build fmt vet locusvet test flakegate race invariants benchonce examplesmoke workloadsmoke fuzzsmoke benchmarkcheck benchdiff chaos
