// Command benchdiff is the perf-regression gate: it re-runs the full
// experiment suite and compares every integer counter of every
// experiment's bench.Result against the committed BENCH_locus.json
// baseline, failing on any difference.
//
// The counters are simulated and deterministic by construction — same
// code, same counts, on any machine — so the comparison is exact
// equality: any drift, up or down, is a real protocol change. Either
// commit a regenerated baseline (`make benchjson`) with the PR that
// explains it, or fix the regression.
//
// benchdiff also gates wall-clock throughput: it runs the E16
// multi-tenant workload at a moderate fixed op budget, measures real
// ops/sec, and fails if the machine falls more than the throughput
// tolerance (default 25%) below the committed floor in
// BENCH_throughput.json. The floor is deliberately conservative —
// well under a healthy run on modest hardware — so the gate is stable
// across CI machines while still catching order-of-magnitude
// simulator regressions (the class of bug it exists for: an O(n²)
// directory decode once cut throughput ~20×). Re-measure with
// `go run ./cmd/locus-bench -workload -workload-ops 20000` and edit
// the floor only with a PR that explains the change.
//
// Usage:
//
//	benchdiff                         # compare against BENCH_locus.json
//	benchdiff -baseline FILE          # compare against FILE
//	benchdiff -no-throughput          # skip the wall-clock throughput gate
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"time"

	"repro/internal/bench"
)

// throughputBaseline is the committed BENCH_throughput.json schema.
type throughputBaseline struct {
	Schema        string  `json:"schema"`
	OpsPerTenant  int     `json:"ops_per_tenant"`
	FloorOpsPerWS float64 `json:"floor_ops_per_wall_sec"`
}

func main() {
	baseline := flag.String("baseline", "BENCH_locus.json", "committed baseline to diff against")
	tpBaseline := flag.String("throughput-baseline", "BENCH_throughput.json", "committed wall-clock throughput floor")
	tpTolerance := flag.Float64("throughput-tolerance", 0.25, "allowed relative shortfall below the throughput floor")
	noThroughput := flag.Bool("no-throughput", false, "skip the wall-clock throughput gate")
	flag.Parse()

	f, err := os.Open(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	base, err := bench.ReadJSON(f)
	f.Close() // error unchecked by design: read-only baseline file
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %s: %v\n", *baseline, err)
		os.Exit(2)
	}
	baseByID := make(map[string]bench.Result, len(base))
	for _, r := range base {
		baseByID[r.ID] = r
	}

	_, current := bench.AllWithMetrics()
	failures := 0
	for _, cur := range current {
		b, ok := baseByID[cur.ID]
		if !ok {
			// A new experiment has no baseline yet: report, don't fail —
			// committing the regenerated baseline is part of adding it.
			fmt.Printf("new  %-4s msgs=%d bytes=%d (no baseline entry)\n", cur.ID, cur.Msgs, cur.Bytes)
			continue
		}
		delete(baseByID, cur.ID)
		// Every int64 field of Result is a deterministic counter.
		bv, cv := reflect.ValueOf(b), reflect.ValueOf(cur)
		drift := 0
		for i := 0; i < bv.NumField(); i++ {
			if bv.Field(i).Kind() != reflect.Int64 || bv.Field(i).Int() == cv.Field(i).Int() {
				continue
			}
			fmt.Printf("FAIL %-4s %-20s %10d -> %10d\n", cur.ID, bv.Type().Field(i).Tag.Get("json"), bv.Field(i).Int(), cv.Field(i).Int())
			drift++
		}
		if drift == 0 {
			fmt.Printf("ok   %-4s msgs=%d bytes=%d\n", cur.ID, cur.Msgs, cur.Bytes)
		}
		failures += drift
	}
	// An experiment present in the baseline but gone from the suite is
	// a silent loss of coverage: fail so the baseline gets regenerated
	// deliberately.
	for id := range baseByID {
		fmt.Printf("FAIL %-4s missing from current suite (baseline entry orphaned)\n", id)
		failures++
	}

	if failures > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d counter(s) differ from the baseline (regenerate BENCH_locus.json via `make benchjson` if the change is intended and explained)\n", failures)
		os.Exit(1)
	}
	fmt.Printf("benchdiff: %d experiments equal to baseline on every counter\n", len(current))

	if !*noThroughput {
		if err := gateThroughput(*tpBaseline, *tpTolerance); err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
			os.Exit(1)
		}
	}
}

// gateThroughput runs the fixed moderate workload and enforces the
// committed wall-clock ops/sec floor.
func gateThroughput(path string, tolerance float64) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var tb throughputBaseline
	if err := json.Unmarshal(raw, &tb); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	if tb.Schema != "locus-throughput/v1" {
		return fmt.Errorf("%s: unknown schema %q", path, tb.Schema)
	}
	if tb.OpsPerTenant <= 0 || tb.FloorOpsPerWS <= 0 {
		return fmt.Errorf("%s: non-positive workload size or floor", path)
	}
	start := time.Now()
	res, err := bench.E16Workload(tb.OpsPerTenant)
	if err != nil {
		return fmt.Errorf("throughput workload: %v", err)
	}
	wall := time.Since(start)
	got := float64(res.Ops) / wall.Seconds()
	min := tb.FloorOpsPerWS * (1 - tolerance)
	if res.Errors != 0 {
		return fmt.Errorf("throughput workload: %d operation errors", res.Errors)
	}
	if got < min {
		return fmt.Errorf("throughput gate: %.0f ops/wall-sec < %.0f (floor %.0f - %.0f%%); the simulator hot path regressed, or this machine is far below the committed floor — re-measure with `locus-bench -workload -workload-ops %d` and justify any floor change",
			got, min, tb.FloorOpsPerWS, tolerance*100, tb.OpsPerTenant)
	}
	fmt.Printf("throughput: %d ops in %s = %.0f ops/wall-sec (floor %.0f, tolerance %.0f%%)\n",
		res.Ops, wall.Round(time.Millisecond), got, tb.FloorOpsPerWS, tolerance*100)
	return nil
}
