package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// LockOrderAnalyzer enforces the declared lock hierarchy.
//
// The hierarchy (Config.LockHierarchy, outermost first) is total:
// while holding a class's mutex, code may only acquire mutexes of
// classes that come strictly later. Acquiring an earlier class — in
// the function itself or anywhere in its static call graph — is an
// inversion: two sites running the protocol concurrently can then
// reach the classic AB/BA deadlock, which in this simulation only
// manifests under partition churn when the replica-reconciliation and
// commit paths overlap.
//
// The analysis is conservative where it must be cheap: statements are
// walked in source order with a single held-set (a deferred Unlock
// keeps its class held to function end), and call effects are the
// fixpoint of each function's transitive may-acquire set. Calls to
// interface methods are resolved by name against every analyzed method.
// Function literals are analyzed as separate roots (they usually run
// as goroutines with no inherited locks).
func LockOrderAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "lockorder",
		Doc:  "enforce the declared lock hierarchy (outermost to innermost)",
		Run:  runLockOrder,
	}
}

type lockAnalysis struct {
	prog *Program
	cfg  *Config
	// graph is the shared call-graph summary (bodies, callees, interface
	// dispatch by name); see callsummary.go.
	graph *callGraph
	// acquires is each analyzed function's transitive may-acquire set of
	// hierarchy class indices.
	acquires map[*types.Func]map[int]bool
}

type funcBody struct {
	pkg  *Package
	body *ast.BlockStmt
	name string
}

func runLockOrder(prog *Program, cfg *Config) []Finding {
	a := &lockAnalysis{
		prog:     prog,
		cfg:      cfg,
		acquires: make(map[*types.Func]map[int]bool),
	}
	// Direct acquire sets are seeded during the call-graph walk: mutex
	// operations are claimed here so they are not recorded as callees,
	// then fixpointSets closes the sets transitively. Function literals
	// are not propagated (they usually run as goroutines with no
	// inherited locks).
	a.graph = buildCallGraph(prog, func(pkg *Package, fn *types.Func, call *ast.CallExpr) bool {
		class, op, ok := a.lockOp(pkg, call)
		if !ok {
			return false
		}
		if op == "Lock" || op == "RLock" {
			if a.acquires[fn] == nil {
				a.acquires[fn] = make(map[int]bool)
			}
			a.acquires[fn][class] = true
		}
		return true
	})
	a.graph.fixpointSets(a.acquires)
	return a.report()
}

// resolveTargets maps a statically resolved callee to the analyzed
// functions it may dispatch to.
func (a *lockAnalysis) resolveTargets(callee *types.Func) []*types.Func {
	return a.graph.resolveTargets(callee)
}

// report walks every analyzed body in source order with a held-set and
// flags hierarchy inversions at acquire sites and call sites.
func (a *lockAnalysis) report() []Finding {
	var out []Finding
	sups := make(map[*Package]*suppressions)
	for fn, fb := range a.graph.bodies {
		sup := sups[fb.pkg]
		if sup == nil {
			sup = suppressionsFor(a.prog, fb.pkg, a.cfg)
			sups[fb.pkg] = sup
		}
		_ = fn
		held := make(map[int]token.Pos) // class -> acquire position
		sticky := make(map[int]bool)    // classes whose Unlock is deferred
		pkg, fset := fb.pkg, a.prog.Fset
		ast.Inspect(fb.body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.DeferStmt:
				// A deferred Unlock keeps the class held to function
				// end. Deferred Locks or protocol calls run at return
				// with an unknowable held-set; skip them.
				if class, op, ok := a.lockOp(pkg, st.Call); ok && (op == "Unlock" || op == "RUnlock") {
					sticky[class] = true
				}
				return false
			case *ast.CallExpr:
				if class, op, ok := a.lockOp(pkg, st); ok {
					switch op {
					case "Lock", "RLock":
						for h, hpos := range held {
							if h > class {
								pos := fset.Position(st.Pos())
								if !sup.allowed(pos, "lockorder") {
									out = append(out, Finding{
										Pos:      pos,
										Analyzer: "lockorder",
										Message: fmt.Sprintf("acquires %s while holding %s (acquired at %s): inverts the declared lock hierarchy",
											a.className(class), a.className(h), fset.Position(hpos)),
									})
								}
							}
						}
						held[class] = st.Pos()
					case "Unlock", "RUnlock":
						if !sticky[class] {
							delete(held, class)
						}
					}
					return true
				}
				if len(held) == 0 {
					return true
				}
				callee := funcFor(pkg.Info, st)
				if callee == nil {
					return true
				}
				for _, target := range a.resolveTargets(callee) {
					for class := range a.acquires[target] {
						for h := range held {
							if h > class {
								pos := fset.Position(st.Pos())
								if !sup.allowed(pos, "lockorder") {
									out = append(out, Finding{
										Pos:      pos,
										Analyzer: "lockorder",
										Message: fmt.Sprintf("call to %s may acquire %s while holding %s: inverts the declared lock hierarchy",
											funcDisplayName(callee), a.className(class), a.className(h)),
									})
								}
							}
						}
					}
				}
				return true
			}
			return true
		})
	}
	return out
}

// lockOp recognizes Lock/RLock/Unlock/RUnlock calls on a mutex owned by
// a hierarchy class, returning the class index and operation name.
func (a *lockAnalysis) lockOp(pkg *Package, call *ast.CallExpr) (int, string, bool) {
	return lockOpOn(pkg, call, a.cfg.LockHierarchy)
}

// lockOpOn recognizes Lock/RLock/Unlock/RUnlock calls on a mutex owned
// by one of the given classes, returning the class index and operation
// name. Both the named-field form (owner.mu.Lock()) and the embedded
// form (owner.Lock()) are matched; mutexes not attached to a listed
// class are ignored. Shared by lockorder and blockinglock.
func lockOpOn(pkg *Package, call *ast.CallExpr, classes []LockClass) (int, string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return 0, "", false
	}
	op := sel.Sel.Name
	switch op {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return 0, "", false
	}
	recvType := pkg.Info.TypeOf(sel.X)
	if recvType == nil {
		return 0, "", false
	}
	if isSyncLocker(recvType) {
		// owner.mu.Lock(): the class is the type owning the mutex field.
		owner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
		if !ok {
			return 0, "", false
		}
		ownerType := pkg.Info.TypeOf(owner.X)
		if class, ok := classIndexIn(ownerType, classes); ok {
			if f := classes[class].Field; f == "" || f == owner.Sel.Name {
				return class, op, true
			}
		}
		return 0, "", false
	}
	// owner.Lock() via an embedded mutex: the receiver itself is the class.
	if class, ok := classIndexIn(recvType, classes); ok && classes[class].Field == "" {
		if f, ok := pkg.Info.Selections[sel]; ok {
			if m, ok := f.Obj().(*types.Func); ok && m.Pkg() != nil && m.Pkg().Path() == "sync" {
				return class, op, true
			}
		}
	}
	return 0, "", false
}

// classIndexIn finds the class of a (possibly pointer) type in a list.
func classIndexIn(t types.Type, classes []LockClass) (int, bool) {
	if t == nil {
		return 0, false
	}
	for i, c := range classes {
		if typeMatches(t, c.PkgSuffix, c.Type) {
			return i, true
		}
	}
	return 0, false
}

func isSyncLocker(t types.Type) bool {
	n := namedOrNil(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == "sync" &&
		(n.Obj().Name() == "Mutex" || n.Obj().Name() == "RWMutex")
}

func (a *lockAnalysis) className(i int) string {
	return a.cfg.LockHierarchy[i].String()
}

func funcDisplayName(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if n := namedOrNil(sig.Recv().Type()); n != nil {
			return n.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Name()
}
