package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// Forbidden is one row of the forbidden-call table: no reference to any
// of Funcs — a call or a function value — may appear in Packages.
type Forbidden struct {
	// Name is the rule: findings carry it, and a
	// `//locus:vet-allow <Name> <reason>` directive suppresses them.
	Name string
	// Packages are the import-path suffixes of the packages the rule
	// covers.
	Packages []string
	// Funcs are the forbidden functions and methods. A spec with no Name
	// stands for every package-level function of its package.
	Funcs []MethodSpec
	// Why ends every finding's message.
	Why string
}

// ForbiddenAnalyzer reports every reference to a function that a
// Config.Forbidden row forbids in the package holding the reference.
// References are matched through Uses (which go/types also fills for a
// selector's method or field) and then types.Func.Origin, so a generic
// function or a method of an instantiated generic type matches its one
// declaration.
func ForbiddenAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "forbidden",
		Doc:  "report references to the functions a forbidden-call table row forbids in its packages",
		Run:  runForbidden,
	}
}

func runForbidden(prog *Program, cfg *Config) []Finding {
	var out []Finding
	for _, pkg := range prog.Targets {
		var rows []*Forbidden
		for i := range cfg.Forbidden {
			if pkgInScope(pkg, cfg.Forbidden[i].Packages) {
				rows = append(rows, &cfg.Forbidden[i])
			}
		}
		if len(rows) == 0 {
			continue
		}
		sup := suppressionsFor(prog, pkg, cfg)
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				fn, ok := pkg.Info.Uses[id].(*types.Func)
				if !ok {
					return true
				}
				fn = fn.Origin()
				for _, row := range rows {
					if _, ok := matchSpec(fn, row.Funcs); !ok {
						continue
					}
					pos := prog.Fset.Position(id.Pos())
					if sup.allowed(pos, row.Name) {
						continue
					}
					// A method reads Recv.Name; a function is qualified
					// by its package.
					name := funcDisplayName(fn)
					if name == fn.Name() {
						name = fn.Pkg().Name() + "." + name
					}
					out = append(out, Finding{
						Pos:      pos,
						Analyzer: row.Name,
						Message:  fmt.Sprintf("%s in package %s: %s", name, pkg.Types.Name(), row.Why),
					})
				}
				return true
			})
		}
	}
	return out
}
