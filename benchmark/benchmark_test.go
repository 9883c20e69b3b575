package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

func TestScriptIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		w.ops = 2000
		a, b, c := w.script(1), w.script(1), w.script(2)
		if w.scriptHash(a) != w.scriptHash(b) {
			t.Errorf("%s: same seed gave different scripts", w.name)
		}
		if w.scriptHash(a) == w.scriptHash(c) {
			t.Errorf("%s: seeds 1 and 2 gave the same script", w.name)
		}
		var kinds [numKinds]int
		for _, o := range a {
			kinds[o.kind]++
			if int(o.sess) >= w.sessions || int(o.file) >= w.files {
				t.Fatalf("%s: op out of range: %+v", w.name, o)
			}
		}
		for k, weight := range w.mix {
			if (weight == 0) != (kinds[k] == 0) {
				t.Errorf("%s: kind %s has weight %d but %d ops", w.name, kindNames[k], weight, kinds[k])
			}
		}
	}
}

func TestPercentile(t *testing.T) {
	v := make([]int64, 100)
	for i := range v {
		v[i] = int64(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{0.50, 50}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile([]int64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %d", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %d", got)
	}
	if got := samplesBeyond(25000, 0.99); got != 250 {
		t.Errorf("samplesBeyond(25000, 0.99) = %d", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{op: 0, parent: -1, start: 0, end: 100},
		{op: 0, parent: 0, start: 10, end: 40},
		{op: 0, parent: 0, start: 50, end: 90},
		{op: -1, parent: -1, start: 100, end: 130},
	}
	want := []int64{30, 30, 40, 30}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self[%d] = %d, want %d", i, got, want[i])
		}
	}
	if err := checkTree(spans, 1); err != nil {
		t.Errorf("well-formed tree rejected: %v", err)
	}
	bad := append([]span(nil), spans...)
	bad[2].end = 101
	if checkTree(bad, 1) == nil {
		t.Error("child outside its parent accepted")
	}
	if checkTree(spans[1:], 1) == nil {
		t.Error("op without a root accepted")
	}
}

// TestSmoke runs 500 ops of every workload untraced and traced: no op
// may fail, the disks must check clean, the traced pass must charge
// exactly what the untraced one did, and the span tree must be well
// formed with self times that add up.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		w.ops = 500
		script := w.script(1)
		plain, err := runPass(&w, script, false, false)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := runPass(&w, script, true, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []*pass{plain, traced} {
			if p.failed != 0 || p.fsckErr != "" {
				t.Errorf("%s: %d failed ops, fsck %q", w.name, p.failed, p.fsckErr)
			}
		}
		if d := simDiff(plain, traced); d != "" {
			t.Errorf("%s: traced pass disagrees with untraced on %s", w.name, d)
		}
		if err := checkTree(traced.spans, len(script)); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		perOp := make([]int64, len(script))
		for i, self := range selfTimes(traced.spans) {
			if self < 0 {
				t.Fatalf("%s: span %d has negative self time", w.name, i)
			}
			if op := traced.spans[i].op; op >= 0 {
				perOp[op] += self
			}
		}
		for i, sum := range perOp {
			if sum != traced.opWallNs[i] {
				t.Fatalf("%s: op %d self times add up to %d, root lasts %d", w.name, i, sum, traced.opWallNs[i])
			}
		}
		m := perLayerOf(script, traced, plain)
		for _, d := range perLayer {
			if _, ok := m[d.name]; !ok && traced.probes != nil {
				t.Errorf("%s: per-layer metric %s not computed", w.name, d.name)
			}
		}
	}
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestLoad   `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func wantManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: 12,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestLoad{w.name, w.why})
	}
	for _, d := range endToEnd {
		bound := d.bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.name, d.unit, d.better, &bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{d.name, d.unit, d.better, nil})
	}
	return m
}

// TestManifest keeps BENCHMARK.json the same list as the program's own
// workload and metric tables. UPDATE_MANIFEST=1 rewrites the file from
// the tables.
func TestManifest(t *testing.T) {
	want, err := json.MarshalIndent(wantManifest(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	const path = "../BENCHMARK.json"
	if os.Getenv("UPDATE_MANIFEST") != "" {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the program's tables; run UPDATE_MANIFEST=1 go test -run TestManifest", path)
	}
	for _, w := range workloads {
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
	}
}
