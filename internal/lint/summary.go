package lint

import (
	"go/ast"
	"go/types"
)

// This file is the interprocedural summary tier: per-function facts
// computed bottom-up over the module's one call graph (callsummary.go)
// and composed at call sites by the analyzers.
//
// Three summaries are computed over one walk of the module:
//
//   - acquires: the hierarchy classes (Config.LockHierarchy) whose
//     mutex the function may lock, directly or through any statically
//     resolvable callee. lockorder composes it at call sites.
//
//   - mayBlock: the function may reach a Config.BlockingCalls
//     primitive, transitively. blockinglock composes it at call sites.
//
//   - wire: the function may perform a wire send — a transport exchange
//     (Config.OrderEffects) directly or through any statically
//     resolvable callee. The effect is order-observable: every send
//     bumps a per-(from,to,method) occurrence counter that the fault
//     plane keys its drop/dup/delay decisions on, so the ORDER in which
//     a group of sends happens is part of the deterministic schedule
//     the chaos replay contract pins. maporder composes this fact at
//     map-range sites.
//
// The table is built once per Config, on the first analyzer's request,
// and shared by every later one: buildCallGraph has one caller.
type summaries struct {
	graph *callGraph
	// acquires is each function's transitive may-acquire set of
	// hierarchy class indices.
	acquires map[*types.Func]map[int]bool
	// mayBlock marks functions that may reach a blocking primitive,
	// transitively.
	mayBlock map[*types.Func]bool
	// wire marks functions that may perform an order-observable wire
	// send, transitively.
	wire map[*types.Func]bool
}

// summariesFor returns the interprocedural summary table for prog,
// building it on first use and serving every later analyzer from the
// cache.
func (cfg *Config) summariesFor(prog *Program) *summaries {
	cfg.mu.Lock()
	defer cfg.mu.Unlock()
	if cfg.summary == nil || cfg.summaryProg != prog {
		cfg.summary, cfg.summaryProg = buildSummaries(prog, cfg), prog
	}
	return cfg.summary
}

func buildSummaries(prog *Program, cfg *Config) *summaries {
	s := &summaries{acquires: make(map[*types.Func]map[int]bool)}
	wire := make(map[*types.Func]map[int]bool)
	mayBlock := make(map[*types.Func]map[int]bool)
	seed := func(sets map[*types.Func]map[int]bool, fn *types.Func, fact int) {
		if sets[fn] == nil {
			sets[fn] = make(map[int]bool)
		}
		sets[fn][fact] = true
	}
	// Direct facts are seeded during the single call-graph walk.
	s.graph = buildCallGraph(prog, func(pkg *Package, fn *types.Func, call *ast.CallExpr) {
		if class, op, ok := lockOpOn(pkg, call, cfg.LockHierarchy); ok && (op == "Lock" || op == "RLock") {
			seed(s.acquires, fn, class)
		}
		if _, ok := matchMustCheck(pkg.Info, call, cfg.BlockingCalls); ok {
			seed(mayBlock, fn, 0)
		}
		if _, ok := matchMustCheck(pkg.Info, call, cfg.OrderEffects); ok {
			seed(wire, fn, 0)
		}
	})
	// The effect methods themselves are wire (their bodies do the send
	// through internal machinery the specs don't name).
	for fn := range s.graph.bodies {
		if _, ok := matchSpec(fn, cfg.OrderEffects); ok {
			seed(wire, fn, 0)
		}
	}
	s.graph.fixpointSets(s.acquires)
	s.mayBlock = s.graph.closeBit(mayBlock)
	s.wire = s.graph.closeBit(wire)
	return s
}

// closeBit closes a one-bit fact seeded as {0} sets and returns the
// functions that have it.
func (g *callGraph) closeBit(sets map[*types.Func]map[int]bool) map[*types.Func]bool {
	g.fixpointSets(sets)
	out := make(map[*types.Func]bool)
	for fn, set := range sets {
		if set[0] {
			out[fn] = true
		}
	}
	return out
}
