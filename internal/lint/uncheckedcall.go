package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// UncheckedCallAnalyzer flags discarded error results from the protocol
// calls listed in Config.MustCheck.
//
// Dropping the error from a netsim Call/Cast or a storage commit/abort
// silently swallows a protocol transition failure: the message never
// arrived, the shadow pages never became the committed image. Those
// are precisely the conditions (§2.3.6, §5) LOCUS's recovery machinery
// is built around, so callers must observe them. Deliberate discards
// take a `//locus:vet-allow uncheckedcall <reason>` comment; the
// justification is mandatory (the allow audit enforces it).
func UncheckedCallAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "uncheckedcall",
		Doc:  "flag ignored error results from netsim exchanges and storage commit paths",
		Run:  runUncheckedCall,
	}
}

func runUncheckedCall(prog *Program, cfg *Config) []Finding {
	var out []Finding
	for _, pkg := range prog.Targets {
		sup := suppressionsFor(prog, pkg, cfg)
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				var call *ast.CallExpr
				discarded := func(int) bool { return true }
				switch st := n.(type) {
				case *ast.ExprStmt:
					call, _ = st.X.(*ast.CallExpr)
				case *ast.GoStmt:
					call = st.Call
				case *ast.DeferStmt:
					call = st.Call
				case *ast.AssignStmt:
					// Only the single-call form x, err := f() maps LHS
					// positions onto result positions.
					if len(st.Rhs) == 1 {
						if c, ok := st.Rhs[0].(*ast.CallExpr); ok && len(st.Lhs) > 1 {
							call = c
							discarded = func(i int) bool {
								if i >= len(st.Lhs) {
									return false
								}
								id, ok := st.Lhs[i].(*ast.Ident)
								return ok && id.Name == "_"
							}
						}
					}
				}
				if call == nil {
					return true
				}
				spec, ok := matchMustCheck(pkg.Info, call, cfg.MustCheck)
				if !ok {
					return true
				}
				fn := funcFor(pkg.Info, call)
				sig, ok := fn.Type().(*types.Signature)
				if !ok {
					return true
				}
				for i := 0; i < sig.Results().Len(); i++ {
					if !isErrorType(sig.Results().At(i).Type()) || !discarded(i) {
						continue
					}
					pos := prog.Fset.Position(call.Pos())
					if sup.allowed(pos, "uncheckedcall") {
						break
					}
					recv := spec.Recv
					if recv != "" {
						recv += "."
					}
					out = append(out, Finding{
						Pos:      pos,
						Analyzer: "uncheckedcall",
						Message: fmt.Sprintf("error result of %s%s is discarded; a dropped %s failure loses a protocol transition",
							recv, spec.Name, spec.Name),
					})
					break
				}
				return true
			})
		}
	}
	return out
}

// matchMustCheck reports whether call resolves to one of the specs.
func matchMustCheck(info *types.Info, call *ast.CallExpr, specs []MethodSpec) (MethodSpec, bool) {
	fn := funcFor(info, call)
	if fn == nil {
		return MethodSpec{}, false
	}
	return matchSpec(fn, specs)
}

// matchSpec reports which of the specs names fn. A spec with no Name
// names every function (or, with a Recv, every method) of its package.
func matchSpec(fn *types.Func, specs []MethodSpec) (MethodSpec, bool) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || fn.Pkg() == nil {
		return MethodSpec{}, false
	}
	for _, spec := range specs {
		if spec.Name != "" && fn.Name() != spec.Name || !hasPathSuffix(fn.Pkg().Path(), spec.PkgSuffix) {
			continue
		}
		if spec.Recv == "" {
			if sig.Recv() == nil {
				return spec, true
			}
			continue
		}
		if sig.Recv() != nil && typeMatches(sig.Recv().Type(), spec.PkgSuffix, spec.Recv) {
			return spec, true
		}
	}
	return MethodSpec{}, false
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}
