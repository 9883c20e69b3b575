// Command locus-bench regenerates the LOCUS paper's figures, tables,
// and quantitative claims on the simulated substrate and prints them.
//
// Usage:
//
//	locus-bench                       # run every experiment
//	locus-bench -exp E2               # run one experiment (E1..E16)
//	locus-bench -list                 # list experiments
//	locus-bench -json BENCH_locus.json  # also write machine-readable results
//	locus-bench -workload             # run the E16 workload standalone
//	locus-bench -workload -workload-ops 20000   # ...at a smaller op budget
//	locus-bench -workload -cpuprofile cpu.prof -memprofile mem.prof
//
// -workload drives the multi-tenant workload engine directly (no
// experiment table, no metrics harness): it prints the deterministic
// counter table to stdout and the wall-clock throughput — the one
// number that is machine-dependent by design — to stderr. The profile
// flags capture pprof data for exactly that run, which is how the
// simulator hot paths in DESIGN.md were found.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	exp := flag.String("exp", "", "run a single experiment (E1..E16)")
	list := flag.Bool("list", false, "list experiments")
	jsonPath := flag.String("json", "", "write per-experiment results to FILE (BENCH_locus.json schema)")
	workloadRun := flag.Bool("workload", false, "run the E16 multi-tenant workload standalone")
	workloadOps := flag.Int("workload-ops", bench.E16OpsPerTenant, "ops per tenant for -workload (x3 tenants)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to FILE")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to FILE")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatalf("%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("%v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatalf("%v", err)
			}
			runtime.GC() // settle the heap so the profile shows retained allocations
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatalf("%v", err)
			}
			if err := f.Close(); err != nil {
				fatalf("%v", err)
			}
		}()
	}

	if *workloadRun {
		start := time.Now()
		res, err := bench.E16Workload(*workloadOps)
		if err != nil {
			fatalf("workload: %v", err)
		}
		wall := time.Since(start)
		fmt.Print(res.CounterTable())
		fmt.Fprintf(os.Stderr, "wall=%s ops/wall-sec=%.0f ops/sim-sec=%.0f\n",
			wall.Round(time.Millisecond), float64(res.Ops)/wall.Seconds(), res.OpsPerSimSec())
		return
	}

	registry := bench.Experiments()
	if *list {
		for _, e := range registry {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	var run []bench.Experiment
	if *exp != "" {
		id := strings.ToUpper(*exp)
		for _, e := range registry {
			if e.ID == id {
				run = append(run, e)
			}
		}
		if len(run) == 0 {
			fatalf("unknown experiment %q (E1..E%d)", *exp, len(registry))
		}
	} else {
		run = registry
	}

	var results []bench.Result
	for _, e := range run {
		t, res := bench.RunWithMetrics(e)
		t.Fprint(os.Stdout)
		results = append(results, res)
	}

	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			fatalf("%v", err)
		}
		if err := bench.WriteJSON(f, results); err != nil {
			f.Close() // error unchecked by design: the write error is the one to report
			fatalf("%v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d experiments)\n", *jsonPath, len(results))
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "locus-bench: "+format+"\n", args...)
	os.Exit(2)
}
