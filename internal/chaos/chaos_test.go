package chaos

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/fs"
)

// chaosSeeds are the fixed seeds CI runs (`make chaos`). They were
// chosen to exercise all event kinds: each schedule includes
// partitions, merges, crashes, restarts, and fault bursts.
var chaosSeeds = []uint64{1, 7, 11}

// Replay flags: TestChaosExtraSeed rebuilds a Config from these, so
// Result.ReplayCommand round-trips any failing run into one
// copy-pasteable command.
var (
	seedFlag       = flag.Uint64("chaos.seed", 0, "run a single extra chaos seed (for reproducing failures)")
	sitesFlag      = flag.Int("chaos.sites", 0, "cluster size for -chaos.seed (0 = default)")
	stepsFlag      = flag.Int("chaos.steps", 0, "schedule steps for -chaos.seed (0 = default)")
	dropFlag       = flag.Float64("chaos.drop", 0, "fault-burst drop rate for -chaos.seed (0 = default)")
	dupFlag        = flag.Float64("chaos.dup", 0, "fault-burst dup rate for -chaos.seed (0 = default)")
	delayFlag      = flag.Float64("chaos.delay", 0, "fault-burst delay rate for -chaos.seed (0 = default)")
	dedupOffFlag   = flag.Bool("chaos.dedupoff", false, "disable at-most-once dedup for -chaos.seed")
	serialPullFlag = flag.Bool("chaos.serialpull", false, "disable bulk propagation for -chaos.seed")
	leasesFlag     = flag.Bool("chaos.leases", false, "enable the lease layer for -chaos.seed")
	procsFlag      = flag.Bool("chaos.procs", false, "enable the process plane for -chaos.seed")
	workloadFlag   = flag.Bool("chaos.workload", false, "drive the workload engine for -chaos.seed")
)

// reportFailure fails the test with the full replayable report and, when
// CHAOS_ARTIFACT_DIR is set (CI), also writes the report to a file so
// the failing run's op log survives as a build artifact.
func reportFailure(t *testing.T, what string, res *Result) {
	t.Helper()
	if dir := os.Getenv("CHAOS_ARTIFACT_DIR"); dir != "" {
		name := strings.NewReplacer("/", "_", "=", "").Replace(t.Name())
		path := filepath.Join(dir, fmt.Sprintf("chaos-%s-seed%d.log", name, res.Seed))
		if err := os.MkdirAll(dir, 0o755); err == nil {
			_ = os.WriteFile(path, []byte(res.String()), 0o644)
			t.Logf("wrote failing op log to %s", path)
		}
	}
	t.Fatalf("%s:\n%s", what, res)
}

// TestChaosSeeds runs the fixed CI seeds: with the at-most-once plane
// on, every randomized fault schedule must end with all invariants
// intact. A failure prints the seed and the full schedule replay log.
func TestChaosSeeds(t *testing.T) {
	for _, seed := range chaosSeeds {
		seed := seed
		t.Run(fmtSeed(seed), func(t *testing.T) {
			t.Parallel()
			res, err := Run(Config{Seed: seed})
			if err != nil {
				t.Fatalf("chaos run failed to execute: %v", err)
			}
			if len(res.Violations) != 0 {
				reportFailure(t, "invariants violated", res)
			}
			if res.Stats.MsgsDropped == 0 && res.Stats.MsgsDuped == 0 && res.Stats.MsgsDelayed == 0 {
				t.Errorf("seed %d injected no faults (dropped=%d duped=%d delayed=%d); schedule never exercised the fault plane",
					seed, res.Stats.MsgsDropped, res.Stats.MsgsDuped, res.Stats.MsgsDelayed)
			}
		})
	}
}

// TestChaosSerialPullSeeds reruns the fixed seeds with bulk windowed
// propagation disabled (the SerialPull ablation): the legacy
// one-exchange-per-page pull path must uphold the same invariants
// under the same fault schedules. Together with TestChaosSeeds (bulk
// on by default) this keeps both protocol variants chaos-covered.
func TestChaosSerialPullSeeds(t *testing.T) {
	for _, seed := range chaosSeeds {
		seed := seed
		t.Run(fmtSeed(seed), func(t *testing.T) {
			t.Parallel()
			res, err := Run(Config{Seed: seed, Features: fs.Features{SerialPull: true}})
			if err != nil {
				t.Fatalf("chaos run failed to execute: %v", err)
			}
			if len(res.Violations) != 0 {
				reportFailure(t, "invariants violated with serial pull", res)
			}
		})
	}
}

// TestChaosLeaseSeeds reruns the fixed seeds with the lease/intent
// layer enabled at every site: delegation grants, batched revocations,
// writer-lease recalls, and lease reclaim across crashes, partitions,
// and fault bursts must uphold the same invariants — including the
// fsck stranded-lease check, which fails any run that ends with a
// lease held at a site the CSS no longer tracks. Every seed must also
// recall a writer registration (fs.recallwriter), the one exchange that
// takes an idle writer lease back; the other regimes' seeds never meet
// a recorded writer at open, so only this one can hold that line. And
// leases must not multiply the storage-site polls: each seed's fs.ssopen
// count stays within 2× of the same seed's without them (an open that
// retried a stale replica once sent 12,051 on seed 1, against 55).
func TestChaosLeaseSeeds(t *testing.T) {
	for _, seed := range chaosSeeds {
		seed := seed
		t.Run(fmtSeed(seed), func(t *testing.T) {
			t.Parallel()
			res, err := Run(Config{Seed: seed, Features: fs.Features{Leases: true}})
			if err != nil {
				t.Fatalf("chaos run failed to execute: %v", err)
			}
			plain, err := Run(Config{Seed: seed})
			if err != nil {
				t.Fatalf("chaos run failed to execute: %v", err)
			}
			if got, base := res.Stats.ByMethod["fs.ssopen"], plain.Stats.ByMethod["fs.ssopen"]; got > 2*base {
				t.Errorf("seed %d sent %d fs.ssopen with leases on, more than 2× the %d without", seed, got, base)
			}
			if len(res.Violations) != 0 {
				reportFailure(t, "invariants violated with leases on", res)
			}
			if res.Stats.LeasesGranted == 0 {
				t.Errorf("seed %d granted no leases; the schedule never exercised the lease layer", seed)
			}
			if res.Stats.ByMethod["fs.recallwriter"] == 0 {
				t.Errorf("seed %d sent no fs.recallwriter; the schedule never recalled a writer registration", seed)
			}
		})
	}
}

// TestChaosProcSeeds reruns the fixed seeds with the process plane on:
// remote run, cross-site signals, named pipes spanning sites,
// migration, and nested transactions interleave with the same topology
// schedule, and the §5.6 failure-action checker must find every
// prescribed outcome delivered (error to caller, EOF not hang,
// exactly-once abort, queued-signal replay). Every seed must also move
// bytes through a pipe — write, read, drain to EOF — and some seed must
// drain a reader to EOF after its writer's site was lost.
func TestChaosProcSeeds(t *testing.T) {
	var mu sync.Mutex
	eofProbes := 0
	t.Cleanup(func() {
		if eofProbes == 0 && !t.Failed() {
			t.Errorf("no seed of %v probed a pipe reader after its writer's site was lost", chaosSeeds)
		}
	})
	for _, seed := range chaosSeeds {
		seed := seed
		t.Run(fmtSeed(seed), func(t *testing.T) {
			t.Parallel()
			res, err := Run(Config{Seed: seed, Procs: true})
			if err != nil {
				t.Fatalf("chaos run failed to execute: %v", err)
			}
			if len(res.Violations) != 0 {
				reportFailure(t, "§5.6 checker violated", res)
			}
			procOps, eofs := 0, 0
			pipeOps := map[string]int{"proc pipe-write ": 0, "proc pipe-read ": 0, "proc pipe-drain ": 0}
			for _, line := range res.Schedule {
				if strings.HasPrefix(line, "proc ") {
					procOps++
				}
				if strings.HasPrefix(line, "proc probe pipe-eof ") {
					eofs++
				}
				for op := range pipeOps {
					if strings.HasPrefix(line, op) {
						pipeOps[op]++
					}
				}
			}
			if procOps == 0 {
				t.Errorf("seed %d ran no process-plane ops; the schedule never exercised the §5.6 checker", seed)
			}
			for op, n := range pipeOps {
				if n == 0 {
					t.Errorf("seed %d logged no %q; the schedule never moved bytes through a pipe that way", seed, strings.TrimSpace(op))
				}
			}
			mu.Lock()
			eofProbes += eofs
			mu.Unlock()
		})
	}
}

// TestChaosWorkloadSeeds reruns the fixed seeds with the multi-tenant
// workload engine driving a share of the schedule AND the process
// plane on: Zipf reads through the pooled page path, zero-copy write
// casts, and build-style rename cycles interleave with partitions,
// crashes, fault bursts, and §5.6 process failures. Every global
// invariant and every §5.6 failure action must still hold — this is
// the regression net proving the perf machinery (page pooling,
// zero-copy payloads, batched delivery, directory cache) does not
// trade correctness for speed.
func TestChaosWorkloadSeeds(t *testing.T) {
	for _, seed := range chaosSeeds {
		seed := seed
		t.Run(fmtSeed(seed), func(t *testing.T) {
			t.Parallel()
			res, err := Run(Config{Seed: seed, Workload: true, Procs: true})
			if err != nil {
				t.Fatalf("chaos run failed to execute: %v", err)
			}
			if len(res.Violations) != 0 {
				reportFailure(t, "invariants violated under workload schedule", res)
			}
			engineSteps := 0
			for _, line := range res.Schedule {
				if strings.HasPrefix(line, "workload engine step") {
					engineSteps++
				}
			}
			if engineSteps == 0 {
				t.Errorf("seed %d ran no workload engine steps; the toggle never engaged", seed)
			}
		})
	}
}

// TestChaosProcReplayDeterminism runs the same proc-plane seed twice
// and requires byte-identical schedules: the replay command printed on
// failure is only useful if the schedule really is a pure function of
// the seed, async Wait completions and all.
func TestChaosProcReplayDeterminism(t *testing.T) {
	run1, err := Run(Config{Seed: chaosSeeds[0], Procs: true})
	if err != nil {
		t.Fatalf("chaos run failed to execute: %v", err)
	}
	run2, err := Run(Config{Seed: chaosSeeds[0], Procs: true})
	if err != nil {
		t.Fatalf("chaos run failed to execute: %v", err)
	}
	if len(run1.Schedule) != len(run2.Schedule) {
		t.Fatalf("schedule lengths differ across replays: %d vs %d", len(run1.Schedule), len(run2.Schedule))
	}
	for i := range run1.Schedule {
		if run1.Schedule[i] != run2.Schedule[i] {
			t.Fatalf("schedule diverges at step %d:\n  first:  %s\n  replay: %s",
				i, run1.Schedule[i], run2.Schedule[i])
		}
	}
}

// TestChaosExtraSeed lets a failing seed from anywhere (CI, fuzzing, a
// bug report) be replayed directly; the -chaos.* flags restore the
// exact Config, so Result.ReplayCommand round-trips:
//
//	go test ./internal/chaos -run ExtraSeed -chaos.seed=123456 -chaos.procs
func TestChaosExtraSeed(t *testing.T) {
	if *seedFlag == 0 {
		t.Skip("no -chaos.seed given")
	}
	res, err := Run(Config{
		Seed:         *seedFlag,
		Sites:        *sitesFlag,
		Steps:        *stepsFlag,
		Drop:         *dropFlag,
		Dup:          *dupFlag,
		Delay:        *delayFlag,
		DisableDedup: *dedupOffFlag,
		Features:     fs.Features{SerialPull: *serialPullFlag, Leases: *leasesFlag},
		Procs:        *procsFlag,
		Workload:     *workloadFlag,
	})
	if err != nil {
		t.Fatalf("chaos run failed to execute: %v", err)
	}
	t.Logf("%s", res)
	if len(res.Violations) != 0 {
		reportFailure(t, "invariants violated", res)
	}
}

// TestChaosCatchesDedupRegression deliberately disables the at-most-once
// dedup tables and checks that the harness notices: with message loss
// plus retries, replayed mutations must corrupt at least one fixed-seed
// run (orphan inodes from replayed creates, divergent copies from
// replayed commits). This guards the guard — if this test starts
// passing dedup-off cleanly, the harness has lost its teeth.
func TestChaosCatchesDedupRegression(t *testing.T) {
	caught := 0
	for _, seed := range chaosSeeds {
		res, err := Run(Config{Seed: seed, DisableDedup: true, Drop: 0.15, Dup: 0.10, Delay: 0.10})
		if err != nil {
			t.Fatalf("chaos run failed to execute: %v", err)
		}
		if n := len(res.Violations); n > 0 {
			t.Logf("seed %d: dedup-off caught with %d violation(s), e.g. %s", seed, n, res.Violations[0])
			caught++
		}
	}
	if caught == 0 {
		t.Fatalf("disabled dedup produced no invariant violations across seeds %v; the chaos harness is not sensitive enough", chaosSeeds)
	}
}

func fmtSeed(s uint64) string {
	return "seed=" + strconv.FormatUint(s, 10)
}
