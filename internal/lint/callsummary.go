package lint

import (
	"go/ast"
	"go/types"
)

// callGraph is the shared call-graph summary layer: every analyzed
// function body in the loaded program, its statically resolved callees,
// and a name index for interface-method dispatch. lockorder built this
// machinery first; blockinglock reuses it so all whole-program
// analyzers agree on what a call can reach.
//
// Resolution is conservative in the same way lockorder always was:
// concrete functions resolve to themselves, interface methods resolve
// to every analyzed method with the same name, and function literals
// are not propagated (they are analyzed as separate roots by the
// analyzers that care).
type callGraph struct {
	prog *Program
	// bodies maps every analyzed function to its declaration body.
	bodies map[*types.Func]*funcBody
	// callees records each analyzed function's statically resolved calls.
	callees map[*types.Func][]*types.Func
	// methodsByName resolves interface-method calls: every analyzed
	// method with a given name may be the dynamic target.
	methodsByName map[string][]*types.Func
}

// buildCallGraph walks every target package once. onCall, if non-nil,
// is invoked for every call expression outside function literals and
// may claim the call (return true) so it is not recorded as a callee —
// lockorder uses this to divert mutex operations into its acquire sets.
func buildCallGraph(prog *Program, onCall func(pkg *Package, fn *types.Func, call *ast.CallExpr) bool) *callGraph {
	g := &callGraph{
		prog:          prog,
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
				g.bodies[obj] = &funcBody{pkg: pkg, body: fn.Body, name: funcDisplayName(obj)}
				if fn.Recv != nil {
					g.methodsByName[fn.Name.Name] = append(g.methodsByName[fn.Name.Name], obj)
				}
				pkg := pkg
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					if _, ok := n.(*ast.FuncLit); ok {
						return false
					}
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if onCall != nil && onCall(pkg, obj, call) {
						return true
					}
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

// fixpointSets closes per-function summary sets over the call graph: a
// function's set absorbs every resolved callee's set until nothing
// changes. The caller seeds `sets` with direct facts (lockorder: lock
// classes acquired; blockinglock: a single "may block" bit).
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
