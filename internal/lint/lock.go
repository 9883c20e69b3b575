package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// LockAnalyzer checks two rules about held mutexes in one walk of every
// analyzed body, and reports each under its own name:
//
//   - lockorder: acquisitions follow Config.LockHierarchy, outermost
//     first. While holding a class's mutex, code may only acquire
//     classes that come strictly later; acquiring an earlier one — in
//     the function itself or anywhere in its static call graph — is an
//     inversion, the AB/BA deadlock two sites running the protocol at
//     once can reach.
//   - blockinglock: no path reaches a Config.BlockingCalls primitive,
//     directly or through any statically resolvable callee, while a
//     Config.BlockingGuard mutex is held. netsim delivers on the
//     sender's goroutine: a Call or a Cast runs the destination's
//     handler before it returns, and a handler may send back to the
//     caller's site (the CSS recalling a lease during an open; proc's
//     child-exit notice chasing a migrated parent), whose handler then
//     takes that site's guard mutex on the goroutine that already holds
//     it. A guard mutex held across a send is a certain self-deadlock,
//     not a possible stall. A circuit that closes under a Call runs the
//     caller's link-down callback on the same goroutine too, which is
//     why the mutex that callback takes — topology.Manager's mu — is a
//     guard class.
//
// The walk is conservative where it must be cheap: statements in source
// order with one held-set per class list (a deferred Unlock keeps its
// class held to function end), and call effects from the summary tier's
// acquires and mayBlock closures over the module's one call graph
// (summary.go), where an interface method resolves by name to every
// analyzed method. Function literals are separate roots with nothing
// held (they usually run as goroutines).
func LockAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "lock",
		Doc:  "enforce the declared lock hierarchy (lockorder); no network exchange or clock wait while holding a guard mutex (blockinglock)",
		Run:  runLocks,
	}
}

func runLocks(prog *Program, cfg *Config) []Finding {
	sum := cfg.summariesFor(prog)
	fset := prog.Fset
	var out []Finding
	sups := make(map[*Package]*suppressions)
	for _, fb := range sum.graph.bodies {
		pkg := fb.pkg
		sup := sups[pkg]
		if sup == nil {
			sup = suppressionsFor(prog, pkg, cfg)
			sups[pkg] = sup
		}
		report := func(at ast.Node, analyzer, format string, args ...any) {
			pos := fset.Position(at.Pos())
			if !sup.allowed(pos, analyzer) {
				out = append(out, Finding{Pos: pos, Analyzer: analyzer, Message: fmt.Sprintf(format, args...)})
			}
		}
		order := newHeldSet(cfg.LockHierarchy)
		guard := newHeldSet(cfg.BlockingGuard)
		ast.Inspect(fb.body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.DeferStmt:
				// A deferred Unlock keeps the class held to function end.
				// Deferred Locks or protocol calls run at return with an
				// unknowable held-set; skip them.
				order.apply(pkg, st.Call, true)
				guard.apply(pkg, st.Call, true)
				return false
			case *ast.CallExpr:
				class, isOrder := order.apply(pkg, st, false)
				_, isGuard := guard.apply(pkg, st, false)
				if isOrder || isGuard {
					if class < 0 {
						return true
					}
					for h, hpos := range order.held {
						if h > class {
							report(st, "lockorder", "acquires %s while holding %s (acquired at %s): inverts the declared lock hierarchy",
								cfg.LockHierarchy[class], cfg.LockHierarchy[h], fset.Position(hpos))
						}
					}
					return true
				}
				if len(order.held) == 0 && len(guard.held) == 0 {
					return true
				}
				var targets []*types.Func
				callee := funcFor(pkg.Info, st)
				if callee != nil {
					targets = sum.graph.resolveTargets(callee)
				}
				for _, target := range targets {
					for class := range sum.acquires[target] {
						for h := range order.held {
							if h > class {
								report(st, "lockorder", "call to %s may acquire %s while holding %s: inverts the declared lock hierarchy",
									funcDisplayName(callee), cfg.LockHierarchy[class], cfg.LockHierarchy[h])
							}
						}
					}
				}
				if len(guard.held) == 0 {
					return true
				}
				verb := "blocks on concurrent progress"
				if _, direct := matchMustCheck(pkg.Info, st, cfg.BlockingCalls); !direct {
					verb = ""
					for _, target := range targets {
						if sum.mayBlock[target] {
							verb = "may transitively block on concurrent progress"
							break
						}
					}
				}
				if verb == "" {
					return true
				}
				for class, hpos := range guard.held {
					report(st, "blockinglock", "%s while holding %s (acquired at %s); the unblocking handler may need that mutex",
						verb, cfg.BlockingGuard[class], fset.Position(hpos))
				}
			}
			return true
		})
	}
	return out
}

// heldSet is the walk's state for one class list.
type heldSet struct {
	classes []LockClass
	held    map[int]token.Pos // class -> acquire position
	sticky  map[int]bool      // classes whose Unlock is deferred
}

func newHeldSet(classes []LockClass) *heldSet {
	return &heldSet{classes: classes, held: make(map[int]token.Pos), sticky: make(map[int]bool)}
}

// apply applies call, deferred or not, to the set if it is a lock
// operation on one of the set's classes, and reports whether it was. It
// returns the class an undeferred Lock or RLock acquires, else -1.
func (s *heldSet) apply(pkg *Package, call *ast.CallExpr, deferred bool) (acquired int, ok bool) {
	class, op, ok := lockOpOn(pkg, call, s.classes)
	if !ok {
		return -1, false
	}
	switch {
	case op == "Lock" || op == "RLock":
		if deferred {
			return -1, true
		}
		s.held[class] = call.Pos()
		return class, true
	case deferred:
		s.sticky[class] = true
	case !s.sticky[class]:
		delete(s.held, class)
	}
	return -1, true
}

// lockOpOn recognizes Lock/RLock/Unlock/RUnlock calls on a mutex owned
// by one of the given classes, returning the class index and operation
// name. Both the named-field form (owner.mu.Lock()) and the embedded
// form (owner.Lock()) are matched; mutexes not attached to a listed
// class are ignored.
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

func funcDisplayName(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if n := namedOrNil(sig.Recv().Type()); n != nil {
			return n.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Name()
}
