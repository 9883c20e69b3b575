package lint

import (
	"fmt"
	"go/ast"
)

// RawCallAnalyzer flags direct uses of the netsim transport
// (Node.Call/CallSeq/Cast) inside packages that own a retrying
// at-most-once wrapper (internal/fs, internal/proc).
//
// The wrappers (Kernel.call/cast, Manager.call/cast) are what make
// protocol exchanges survive message loss: they tag mutating requests
// with dedup sequence numbers and retry timeouts under the simulated
// clock's backoff. A raw Node.Call bypasses all of that — under the
// fault plane it turns one lost message into a spurious operation
// failure, and a raw retry without a sequence number re-runs the
// mutation (the double-commit/double-create bugs the dedup tables
// exist to prevent). The wrapper implementations themselves carry a
// `//locus:vet-allow rawcall` justification.
func RawCallAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "rawcall",
		Doc:  "flag direct netsim transport calls that bypass the retrying at-most-once RPC wrappers",
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
					Message: fmt.Sprintf("direct %s.%s bypasses the retrying at-most-once RPC wrapper; use the package's call/cast wrapper",
						spec.Recv, spec.Name),
				})
				return true
			})
		}
	}
	return out
}
