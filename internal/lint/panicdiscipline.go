package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// PanicDisciplineAnalyzer flags panic calls in library code that are
// not explicit invariant assertions.
//
// A panic in a protocol path takes down every simulated site at once —
// the exact opposite of the partition-tolerant failure model the paper
// describes. Library code must return typed errors for recoverable
// conditions and reserve panics for genuine invariant violations,
// marked so readers (and this analyzer) can tell the two apart.
//
// A panic is sanctioned when any of these hold:
//   - the enclosing function's name is "must" or starts with
//     "must"/"Must" (the conventional fail-on-setup-error helpers);
//   - the panic line, or one of the two lines above it, carries an
//     `// invariant:` comment stating the violated assumption;
//   - it is in a main package (top-level tooling may abort freely), a
//     _test.go file, or a configured invariant package.
func PanicDisciplineAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "panicdiscipline",
		Doc:  "flag panic in library code that is not a marked invariant assertion",
		Run:  runPanicDiscipline,
	}
}

func runPanicDiscipline(prog *Program, cfg *Config) []Finding {
	var out []Finding
	for _, pkg := range prog.Targets {
		if pkg.Types.Name() == "main" || pkgInScope(pkg, cfg.InvariantPackages) {
			continue
		}
		sup := suppressionsFor(prog, pkg, cfg)
		for _, file := range pkg.Files {
			marks := invariantCommentLines(prog.Fset, file)
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				allowedFn := isMustFunc(fn.Name.Name)
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					if lit, ok := n.(*ast.FuncLit); ok {
						// Function literals inherit the enclosing
						// function's dispensation; no extra handling.
						_ = lit
					}
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					ident, ok := ast.Unparen(call.Fun).(*ast.Ident)
					if !ok || ident.Name != "panic" {
						return true
					}
					if _, isBuiltin := pkg.Info.Uses[ident].(*types.Builtin); !isBuiltin {
						return true
					}
					if allowedFn {
						return true
					}
					pos := prog.Fset.Position(call.Pos())
					if sup.allowed(pos, "panicdiscipline") {
						return true
					}
					if marks[pos.Line] || marks[pos.Line-1] || marks[pos.Line-2] {
						return true
					}
					out = append(out, Finding{
						Pos:      pos,
						Analyzer: "panicdiscipline",
						Message: "panic in library code: return a typed error, or mark the call " +
							"with an `// invariant:` comment naming the violated assumption",
					})
					return true
				})
			}
		}
	}
	return out
}

// isMustFunc reports whether a function name carries the must-helper
// dispensation: the helper's whole contract is "abort on error".
func isMustFunc(name string) bool {
	return name == "must" || strings.HasPrefix(name, "must") || strings.HasPrefix(name, "Must")
}

// invariantCommentLines collects the lines of `// invariant:` marker
// comments in a file.
func invariantCommentLines(fset *token.FileSet, file *ast.File) map[int]bool {
	lines := make(map[int]bool)
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if strings.HasPrefix(text, "invariant:") {
				lines[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return lines
}
