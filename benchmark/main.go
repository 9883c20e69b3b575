// Command benchmark is this repository's benchmark: four Session-level
// workloads measured on two clocks (the exact simulated one and the
// wall clock the simulator itself costs), with a per-layer ledger taken
// from outside the system. See README.md beside this file.
//
// With --workload it runs one workload in this process and prints one
// JSON result as its last line (the form BENCHMARK.json's driver
// reads). Without it, it runs every workload, untraced and traced, each
// in a process of its own, and prints every metric by name.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload and print a JSON result (default: run all and print a report)")
		seed    = flag.Uint64("seed", 1, "seed of the generated op script")
		seconds = flag.Float64("seconds", 12, "measure whole epochs until this many seconds of measured phase")
		trace   = flag.Int("trace", 0, "1: pair every epoch with a traced pass and report the per-layer metrics")
		repeat  = flag.Int("repeat", 1, "report mode: run the whole set this many times and fail unless the runs agree")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 || *repeat < 1 {
		flag.Usage()
		os.Exit(2)
	}
	var err error
	if *name == "" {
		err = report(*seed, *seconds, *repeat)
	} else {
		err = runOne(*name, *seed, *seconds, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// traceDir is where trace files go, relative to the checkout root the
// program is run from.
const traceDir = "benchmark/out"

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne measures one workload in this process: whole epochs (fresh
// cluster, the full script) until the measured phases add up to
// seconds. Every epoch does identical work, so a faster program runs
// more epochs, never different ones; each metric is the median over
// the epochs.
func runOne(name string, seed uint64, seconds float64, traced bool) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	// One op is in flight at a time, so a second P has nothing to run
	// but the other end of every netsim hand-off, and waking it is a
	// cross-thread futex call: measured here, that halves throughput
	// and makes it swing by a quarter from run to run. One P measures
	// what the simulator computes.
	runtime.GOMAXPROCS(1)
	script := w.script(seed)
	defs := endToEnd
	if traced {
		defs = perLayer
	}

	var (
		epochs    []map[string]float64
		rawLine   string // per epoch: ops/s as measured and the slowdown it was divided by
		res       result
		problems  []string
		first     *pass
		measured  float64
		lastTrace []span
		probes    map[string]float64
	)
	// account books one pass: its time, its ops, and whether it left the
	// disks clean and charged exactly what the run's first pass did.
	account := func(p *pass, what string) {
		measured += float64(p.busyNs()) / 1e9
		res.Attempted += len(script)
		res.Failed += p.failed
		if p.fsckErr != "" {
			problems = append(problems, p.fsckErr)
		}
		if first == nil {
			first = p
		} else if d := simDiff(first, p); d != "" {
			problems = append(problems, what+" disagrees with the first epoch on "+d)
		}
	}
	for measured < seconds {
		p, err := runPass(&w, script, false, false)
		if err != nil {
			return err
		}
		account(p, "epoch")
		if !traced {
			epochs = append(epochs, endToEndOf(p))
			rawLine += fmt.Sprintf(" %.0f/%.3f", float64(len(script))/(float64(p.busyNs())/1e9), p.cal.slowdown())
			continue
		}

		pt, err := runPass(&w, script, true, probes == nil)
		if err != nil {
			return err
		}
		if probes == nil {
			probes = pt.probes
		}
		pt.probes = probes
		account(pt, "traced pass")
		if err := checkTree(pt.spans, len(script)); err != nil {
			problems = append(problems, "trace: "+err.Error())
		}
		epochs = append(epochs, perLayerOf(script, pt, p))
		lastTrace = pt.spans
	}

	res.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		var vals []float64
		for _, e := range epochs {
			vals = append(vals, e[d.name])
		}
		res.Metrics[d.name] = metricValue{Value: median(vals), Unit: d.unit}
	}
	if !traced {
		res.Metrics["peak_rss_mb"] = metricValue{Value: peakRSSMB(), Unit: "MB"}
	}
	if lastTrace != nil {
		path := filepath.Join(traceDir, "trace-"+w.name+".jsonl")
		if err := writeTrace(path, lastTrace); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		fmt.Printf("# trace: %s (%d spans)\n", path, len(lastTrace))
	}

	n := len(script)
	fmt.Printf("# workload=%s seed=%d ops_per_epoch=%d epochs=%d script_hash=%s gomaxprocs=%d\n",
		w.name, seed, n, len(epochs), w.scriptHash(script), runtime.GOMAXPROCS(0))
	fmt.Printf("# samples per epoch: locus.wall_p50_us=%d; locus.sim_cost_p99_us=%d, %d beyond; per-kind wall p99:",
		n, n, samplesBeyond(n, 0.99))
	var perKind [numKinds]int
	for i := range script {
		perKind[script[i].kind]++
	}
	for k, c := range perKind {
		if c > 0 {
			fmt.Printf(" %s=%d (%d beyond)", kindNames[k], c, samplesBeyond(c, 0.99))
		}
	}
	fmt.Println()
	if !traced {
		fmt.Println("# per epoch, ops/s as measured / slowdown:" + rawLine)
	}
	for _, msg := range problems {
		fmt.Println("# PROBLEM:", msg)
	}
	res.Correct = res.Failed == 0 && len(problems) == 0
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errors.New("incorrect run: " + fmt.Sprint(res.Failed, " failed ops, ", len(problems), " problems"))
	}
	return nil
}

// simDiff names the first simulated quantity on which two passes over
// the same script differ ("" if none): totals and every op's cost.
func simDiff(a, b *pass) string {
	switch {
	case a.stats.Msgs != b.stats.Msgs:
		return fmt.Sprintf("msgs (%d vs %d)", a.stats.Msgs, b.stats.Msgs)
	case a.stats.Bytes != b.stats.Bytes:
		return fmt.Sprintf("wire bytes (%d vs %d)", a.stats.Bytes, b.stats.Bytes)
	case a.stats.CPUUs != b.stats.CPUUs:
		return fmt.Sprintf("sim cpu (%d vs %d)", a.stats.CPUUs, b.stats.CPUUs)
	case a.stats.DiskUs != b.stats.DiskUs:
		return fmt.Sprintf("sim disk (%d vs %d)", a.stats.DiskUs, b.stats.DiskUs)
	}
	for i := range a.opSimUs {
		if a.opSimUs[i] != b.opSimUs[i] {
			return fmt.Sprintf("sim cost of op %d (%d vs %d)", i, a.opSimUs[i], b.opSimUs[i])
		}
	}
	return ""
}
