package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// BlockingLockAnalyzer forbids blocking on concurrent progress while
// holding one of the BlockingGuard mutexes.
//
// A simulated-clock Backoff yields the caller's turn so some other
// goroutine can make progress — and on a loaded site that other
// goroutine is frequently one that needs the very mutex the caller is
// holding, so the retry loop around the Backoff never ends. That
// is the self-deadlock shape lockvalid.go works around at runtime by
// carefully releasing k.mu before probing; this analyzer makes the
// discipline static: no path may reach a blocking primitive, directly
// or through any statically resolvable callee, while a guard class
// mutex is held.
//
// For a network exchange (Node.Call, Node.Cast and the typed functions
// above them) it is more than a discipline: it is the precondition of
// netsim's sender-side delivery. A send runs the destination's handler
// on the caller's goroutine, and a handler may send back to the
// caller's site (the CSS recalling a lease during an open; proc's
// child-exit notice chasing a migrated parent), whose handler then
// takes that site's guard mutex on the goroutine that would already
// hold it. A mutex held across a Call or a Cast is a certain
// self-deadlock, not a possible stall, and this analyzer is the only
// thing that sees it before a run does. A circuit that closes under a
// Call (a fault crashes the callee) runs the caller's link-down
// callback on the same goroutine too, which is why the mutex that
// callback takes — topology.Manager's mu — is a guard class.
//
// Call effects are the fixpoint of the call graph (callsummary.go):
// a function "may block" if it calls a BlockingCalls primitive or any
// function that transitively does. The per-body walk mirrors
// lockorder's held-set pass, including its sticky treatment of
// deferred Unlocks. Function literals are separate roots with an empty
// held-set (they run as goroutines).
func BlockingLockAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "blockinglock",
		Doc:  "no simulated-clock wait or network exchange while holding a guard mutex",
		Run:  runBlockingLock,
	}
}

func runBlockingLock(prog *Program, cfg *Config) []Finding {
	if len(cfg.BlockingCalls) == 0 || len(cfg.BlockingGuard) == 0 {
		return nil
	}
	// mayBlock: single-bit summary closed over the call graph.
	mayBlock := make(map[*types.Func]map[int]bool)
	graph := buildCallGraph(prog, func(pkg *Package, fn *types.Func, call *ast.CallExpr) bool {
		if _, ok := matchMustCheck(pkg.Info, call, cfg.BlockingCalls); ok {
			if mayBlock[fn] == nil {
				mayBlock[fn] = make(map[int]bool)
			}
			mayBlock[fn][0] = true
		}
		return false // still record the callee for transitive effects
	})
	graph.fixpointSets(mayBlock)

	var out []Finding
	sups := make(map[*Package]*suppressions)
	for _, fb := range graph.bodies {
		sup := sups[fb.pkg]
		if sup == nil {
			sup = suppressionsFor(prog, fb.pkg, cfg)
			sups[fb.pkg] = sup
		}
		pkg, fset := fb.pkg, prog.Fset
		held := make(map[int]token.Pos)
		sticky := make(map[int]bool)
		ast.Inspect(fb.body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.DeferStmt:
				if class, op, ok := lockOpOn(pkg, st.Call, cfg.BlockingGuard); ok && (op == "Unlock" || op == "RUnlock") {
					sticky[class] = true
				}
				return false
			case *ast.CallExpr:
				if class, op, ok := lockOpOn(pkg, st, cfg.BlockingGuard); ok {
					switch op {
					case "Lock", "RLock":
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
				direct := false
				if _, ok := matchMustCheck(pkg.Info, st, cfg.BlockingCalls); ok {
					direct = true
				}
				transitive := false
				if !direct {
					if callee := funcFor(pkg.Info, st); callee != nil {
						for _, target := range graph.resolveTargets(callee) {
							if mayBlock[target][0] {
								transitive = true
								break
							}
						}
					}
				}
				if !direct && !transitive {
					return true
				}
				for class, hpos := range held {
					pos := fset.Position(st.Pos())
					if sup.allowed(pos, "blockinglock") {
						continue
					}
					verb := "blocks on concurrent progress"
					if transitive {
						verb = "may transitively block on concurrent progress"
					}
					out = append(out, Finding{
						Pos:      pos,
						Analyzer: "blockinglock",
						Message: fmt.Sprintf("%s while holding %s (acquired at %s); the unblocking handler may need that mutex",
							verb, cfg.BlockingGuard[class].String(), fset.Position(hpos)),
					})
				}
				return true
			}
			return true
		})
	}
	return out
}
