// Command locus-vet runs the repository's custom static analyzers (see
// internal/lint), six of them: the forbidden-call table (its rows
// report as simclock, rawcall and atomic), uncheckedcall,
// panicdiscipline, the CFG dataflow pageleak, and, over the module's
// one call graph, the lock walk (lockorder, blockinglock) and maporder.
// Then the allow audits: a suppression must carry a reason and must hide
// a finding (staleallow).
//
// Usage:
//
//	go run ./cmd/locus-vet [-json] ./...
//
// The package pattern is accepted for familiarity; the tool always
// analyzes the whole module around the working directory, since several
// analyses are whole-program fixpoints. -json emits the analyzers run,
// the findings, and every allow directive with its position and reason,
// each tallied per analyzer. Exit status: 0 clean, 1 findings, 2 load
// failure (any package that fails to parse or type-check).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/lint"
)

type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// report is the -json output shape; CI uploads it as an artifact.
type report struct {
	Analyzers  []string            `json:"analyzers"`
	Findings   []jsonFinding       `json:"findings"`
	ByAnalyzer map[string]int      `json:"findings_by_analyzer"`
	Allows     []lint.Allow        `json:"allows"`
	AllowedBy  map[string]int      `json:"allows_by_analyzer"`
	LoadErrors []lint.PackageError `json:"load_errors,omitempty"`
}

func main() {
	jsonOut := flag.Bool("json", false, "emit findings, allow directives, and load errors as JSON on stdout")
	flag.Parse()
	os.Exit(run(*jsonOut, os.Stdout))
}

func run(jsonOut bool, stdout io.Writer) int {
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		return loadFailure(jsonOut, stdout, []lint.PackageError{{Path: "(module)", Err: err.Error()}})
	}

	prog, err := lint.LoadAll(root, nil)
	if err != nil {
		var le *lint.LoadError
		if errors.As(err, &le) {
			return loadFailure(jsonOut, stdout, le.Packages)
		}
		return loadFailure(jsonOut, stdout, []lint.PackageError{{Path: "(module)", Err: err.Error()}})
	}

	allows := lint.CollectAllows(prog)
	cfg := lint.DefaultConfig()
	findings := lint.Run(prog, cfg, lint.Analyzers())
	findings = append(findings, lint.AllowPolicyFindings(prog)...)
	// The stale-suppression audit must run last: it reads the ledger of
	// directives that fired during the analyzer runs above.
	findings = append(findings, lint.StaleAllowFindings(prog, cfg)...)
	sort.Slice(findings, func(i, j int) bool {
		if findings[i].Pos.Filename != findings[j].Pos.Filename {
			return findings[i].Pos.Filename < findings[j].Pos.Filename
		}
		if findings[i].Pos.Line != findings[j].Pos.Line {
			return findings[i].Pos.Line < findings[j].Pos.Line
		}
		return findings[i].Analyzer < findings[j].Analyzer
	})

	if jsonOut {
		r := report{
			Findings:   []jsonFinding{},
			ByAnalyzer: map[string]int{},
			Allows:     allows,
			AllowedBy:  map[string]int{},
		}
		for _, a := range lint.Analyzers() {
			r.Analyzers = append(r.Analyzers, a.Name)
		}
		for _, f := range findings {
			r.Findings = append(r.Findings, jsonFinding{
				File: f.Pos.Filename, Line: f.Pos.Line, Column: f.Pos.Column,
				Analyzer: f.Analyzer, Message: f.Message,
			})
			r.ByAnalyzer[f.Analyzer]++
		}
		for _, a := range allows {
			for _, name := range a.Analyzers {
				r.AllowedBy[name]++
			}
		}
		emit(stdout, r)
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "locus-vet: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

func loadFailure(jsonOut bool, stdout io.Writer, pkgErrs []lint.PackageError) int {
	if jsonOut {
		emit(stdout, report{
			Findings: []jsonFinding{}, ByAnalyzer: map[string]int{},
			Allows: []lint.Allow{}, AllowedBy: map[string]int{}, LoadErrors: pkgErrs,
		})
	}
	for _, pe := range pkgErrs {
		fmt.Fprintf(os.Stderr, "locus-vet: load: %s: %s\n", pe.Path, pe.Err)
	}
	return 2
}

func emit(w io.Writer, r report) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		fmt.Fprintln(os.Stderr, "locus-vet: encoding report:", err)
	}
}
