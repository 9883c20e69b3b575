package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strings"
)

// childRun is what one single-workload child process reported.
type childRun struct {
	res  result
	hash string
}

var hashRE = regexp.MustCompile(`script_hash=([0-9a-f]+)`)

// runChild re-executes this program for one workload, so that peak RSS
// and GC state do not leak between workloads. It relays the child's
// "#" lines and parses the JSON result on its last line.
func runChild(w string, seed uint64, seconds float64, trace int) (*childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--workload", w, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output() // Output waits for the child to exit
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	for _, l := range lines {
		if strings.HasPrefix(l, "#") {
			fmt.Println(l)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s (trace %d): %w", w, trace, err)
	}
	c := &childRun{}
	dec := json.NewDecoder(bytes.NewReader([]byte(lines[len(lines)-1])))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c.res); err != nil {
		return nil, fmt.Errorf("%s (trace %d): bad result line: %w", w, trace, err)
	}
	if m := hashRE.FindSubmatch(out); m != nil {
		c.hash = string(m[1])
	}
	return c, nil
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// report runs every workload untraced and traced and prints every
// metric by name with its unit. With repeat > 1 it runs the whole set
// again and fails unless the sets agree: script hashes and simulated
// metrics exactly, wall metrics within their bounds.
func report(seed uint64, seconds float64, repeat int) error {
	fmt.Printf("# commit=%s go=%s nproc=%d default_gomaxprocs=%d (workloads run at 1) seed=%d seconds=%g\n",
		gitCommit(), runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), seed, seconds)
	var sets []map[string]*childRun // per repeat: workload -> untraced run
	for rep := 0; rep < repeat; rep++ {
		set := map[string]*childRun{}
		for _, w := range workloads {
			for trace, defs := range [][]metricDef{endToEnd, perLayer} {
				c, err := runChild(w.name, seed, seconds, trace)
				if err != nil {
					return err
				}
				if trace == 0 {
					set[w.name] = c
				}
				for _, d := range defs {
					fmt.Printf("%-16s %-32s %16.4f %s\n", w.name, d.name, c.res.Metrics[d.name].Value, d.unit)
				}
				fmt.Printf("%-16s %-32s %16.4f %s\n", w.name, "failed_op_frac",
					float64(c.res.Failed)/float64(c.res.Attempted), "ratio")
			}
		}
		sets = append(sets, set)
	}
	var disagreements []string
	for rep := 1; rep < len(sets); rep++ {
		for _, w := range workloads {
			disagreements = append(disagreements, disagree(w.name, sets[0][w.name], sets[rep][w.name])...)
		}
	}
	for _, d := range disagreements {
		fmt.Println("DISAGREE:", d)
	}
	if len(disagreements) > 0 {
		return fmt.Errorf("%d metrics disagree between repeats", len(disagreements))
	}
	if repeat > 1 {
		fmt.Printf("# %d sets agree: hashes and simulated metrics exactly, wall metrics within their bounds\n", repeat)
	}
	return nil
}

// disagree lists the ways two untraced runs of one workload differ by
// more than the benchmark allows.
func disagree(w string, a, b *childRun) []string {
	var out []string
	if a.hash != b.hash {
		out = append(out, fmt.Sprintf("%s: script hash %s vs %s", w, a.hash, b.hash))
	}
	if a.res.Failed != b.res.Failed {
		out = append(out, fmt.Sprintf("%s: failed ops %d vs %d", w, a.res.Failed, b.res.Failed))
	}
	for _, d := range endToEnd {
		x, y := a.res.Metrics[d.name].Value, b.res.Metrics[d.name].Value
		bound := d.bound
		if simMetrics[d.name] {
			bound = 0
		}
		if math.Abs(x-y) > bound*math.Min(x, y) {
			out = append(out, fmt.Sprintf("%s: %s %.6g vs %.6g (allowed %.0f%%)", w, d.name, x, y, bound*100))
		}
	}
	return out
}
