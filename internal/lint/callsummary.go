package lint

import (
	"go/ast"
	"go/types"
)

// callGraph is the module's one call graph: every analyzed function
// body in the loaded program, its statically resolved callees, and a
// name index for interface-method dispatch. The summary tier
// (summary.go) builds it once per Config and closes every
// interprocedural fact over it, so all analyzers agree on what a call
// can reach.
//
// Resolution is conservative: concrete functions resolve to
// themselves, interface methods resolve to every analyzed method with
// the same name, and function literals are not propagated (they are
// analyzed as separate roots by the analyzers that care).
type callGraph struct {
	// bodies maps every analyzed function to its declaration body.
	bodies map[*types.Func]*funcBody
	// callees records each analyzed function's statically resolved calls.
	callees map[*types.Func][]*types.Func
	// methodsByName resolves interface-method calls: every analyzed
	// method with a given name may be the dynamic target.
	methodsByName map[string][]*types.Func
}

type funcBody struct {
	pkg  *Package
	body *ast.BlockStmt
}

// buildCallGraph walks every target package once. onCall is invoked
// for every call expression outside function literals, so the caller
// can seed direct facts in the same walk.
func buildCallGraph(prog *Program, onCall func(pkg *Package, fn *types.Func, call *ast.CallExpr)) *callGraph {
	g := &callGraph{
		bodies:        make(map[*types.Func]*funcBody),
		callees:       make(map[*types.Func][]*types.Func),
		methodsByName: make(map[string][]*types.Func),
	}
	for _, pkg := range prog.Targets {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fn.Name].(*types.Func)
				if !ok {
					continue
				}
				g.bodies[obj] = &funcBody{pkg: pkg, body: fn.Body}
				if fn.Recv != nil {
					g.methodsByName[fn.Name.Name] = append(g.methodsByName[fn.Name.Name], obj)
				}
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					if _, ok := n.(*ast.FuncLit); ok {
						return false
					}
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					onCall(pkg, obj, call)
					if callee := funcFor(pkg.Info, call); callee != nil {
						g.callees[obj] = append(g.callees[obj], callee)
					}
					return true
				})
			}
		}
	}
	return g
}

// resolveTargets maps a statically resolved callee to the analyzed
// functions it may dispatch to.
func (g *callGraph) resolveTargets(callee *types.Func) []*types.Func {
	if _, ok := g.bodies[callee]; ok {
		return []*types.Func{callee}
	}
	sig, ok := callee.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); !isIface {
		return nil
	}
	return g.methodsByName[callee.Name()]
}

// fixpointSets closes per-function fact sets over the call graph: a
// function's set absorbs every resolved callee's set until nothing
// changes. The caller seeds `sets` with direct facts (the lock classes
// a function acquires; a single "may send" or "may block" bit).
func (g *callGraph) fixpointSets(sets map[*types.Func]map[int]bool) {
	for fn := range g.bodies {
		if sets[fn] == nil {
			sets[fn] = make(map[int]bool)
		}
	}
	for changed := true; changed; {
		changed = false
		for fn, set := range sets {
			for _, callee := range g.callees[fn] {
				for _, target := range g.resolveTargets(callee) {
					for class := range sets[target] {
						if !set[class] {
							set[class] = true
							changed = true
						}
					}
				}
			}
		}
	}
}
