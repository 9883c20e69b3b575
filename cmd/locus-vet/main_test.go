package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/lint"
)

// TestRunReportsCleanModule runs locus-vet as CI does, -json over the
// whole module: it must exit 0 with no findings, name every analyzer it
// ran, and its per-analyzer allow tally must be that of
// lint.CollectAllows.
func TestRunReportsCleanModule(t *testing.T) {
	var buf bytes.Buffer
	if code := run(true, &buf); code != 0 {
		t.Fatalf("run exited %d, want 0:\n%s", code, buf.String())
	}
	var r report
	if err := json.Unmarshal(buf.Bytes(), &r); err != nil {
		t.Fatalf("decoding the -json report: %v", err)
	}
	if len(r.Findings) != 0 {
		t.Errorf("report lists %d findings, want none: %+v", len(r.Findings), r.Findings)
	}
	if len(r.Analyzers) != len(lint.Analyzers()) {
		t.Errorf("report lists analyzers %v, want the %d of lint.Analyzers", r.Analyzers, len(lint.Analyzers()))
	}

	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lint.LoadAll(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{}
	for _, a := range lint.CollectAllows(prog) {
		for _, name := range a.Analyzers {
			want[name]++
		}
	}
	if !reflect.DeepEqual(r.AllowedBy, want) {
		t.Errorf("allows_by_analyzer = %v, want %v", r.AllowedBy, want)
	}
}
