package lint

import (
	"fmt"
	"go/ast"
)

// RawCallAnalyzer flags direct uses of the untyped netsim transport
// (Node.Handle/Call/CallSeq/Cast) inside the protocol packages
// (internal/fs, internal/proc).
//
// netsim.Handle/Call/Cast over a declared Method or OneWay are what
// make protocol exchanges survive message loss: they tag at-most-once
// requests with dedup sequence numbers and retry timeouts under the
// simulated clock's backoff. A raw Node.Call bypasses all of that —
// under the fault plane it turns one lost message into a spurious
// operation failure, and a raw retry without a sequence number re-runs
// the mutation (the double-commit/double-create bugs the dedup tables
// exist to prevent). A raw Node.Handle or method string escapes the
// compiler's pairing of caller and handler types, which is what lets
// one descriptor stand for a message's whole definition.
func RawCallAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "rawcall",
		Doc:  "flag untyped netsim transport calls in the protocol packages; they bypass the typed at-most-once path",
		Run:  runRawCall,
	}
}

func runRawCall(prog *Program, cfg *Config) []Finding {
	var out []Finding
	for _, pkg := range prog.Targets {
		wrapped := false
		for _, suffix := range cfg.RawCallWrapped {
			if hasPathSuffix(pkg.Path, suffix) {
				wrapped = true
				break
			}
		}
		if !wrapped {
			continue
		}
		sup := suppressionsFor(prog, pkg, cfg)
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				spec, ok := matchMustCheck(pkg.Info, call, cfg.RawCallTransport)
				if !ok {
					return true
				}
				pos := prog.Fset.Position(call.Pos())
				if sup.allowed(pos, "rawcall") {
					return true
				}
				out = append(out, Finding{
					Pos:      pos,
					Analyzer: "rawcall",
					Message: fmt.Sprintf("direct %s.%s bypasses the typed at-most-once path; use netsim.Handle/Call/Cast with the message's declared descriptor",
						spec.Recv, spec.Name),
				})
				return true
			})
		}
	}
	return out
}
