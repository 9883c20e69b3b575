package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// This file is the interprocedural summary tier: per-function facts
// computed bottom-up over the module's one call graph (callsummary.go)
// and composed at call sites by the analyzers.
//
// Four summaries are computed over one walk of the module:
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
//   - sentinel: the function may return a raw transport sentinel
//     (Config.SentinelVars — netsim.ErrUnreachable, ErrTimeout, the
//     crash variants, fs.ErrNoCSS...) in an error result without
//     passing one of the designated wrap funnels
//     (Config.SentinelFunnels). This is a true interprocedural
//     dataflow: each function's CFG is walked with a taint analysis
//     (funnels launder, `err != nil` refinement kills on the nil edge),
//     and because a callee's summary feeds its callers the whole map is
//     iterated to a fixpoint. sentinelerr composes this fact at the
//     return statements of exported API functions.
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
	// sentinel marks functions that may return a raw transport sentinel
	// unwrapped in an error result, transitively.
	sentinel map[*types.Func]bool
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
	s := &summaries{
		acquires: make(map[*types.Func]map[int]bool),
		sentinel: make(map[*types.Func]bool),
	}
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

	if len(cfg.SentinelVars) > 0 {
		s.buildSentinel(prog, cfg)
	}
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

// ---------------------------------------------------------------------
// Sentinel-return summary.

// buildSentinel iterates the per-function taint analysis to a global
// fixpoint: a function's summary depends on its callees' summaries, so
// the whole map is recomputed until nothing changes (bounded by the
// call-graph depth; the repository's graphs converge in 3-4 rounds).
func (s *summaries) buildSentinel(prog *Program, cfg *Config) {
	for changed := true; changed; {
		changed = false
		for fn, fb := range s.graph.bodies {
			if s.sentinel[fn] {
				continue
			}
			if s.sentinelReturns(fb, fn, cfg, nil) {
				s.sentinel[fn] = true
				changed = true
			}
		}
	}
}

// sentinelTaint is the per-function taint pass state.
type sentinelTaint struct {
	s   *summaries
	cfg *Config
	pkg *Package
	// sig is the analyzed function's signature (named error results
	// make bare returns taint-carriers).
	sig *types.Signature
}

// sentinelReturns runs the CFG taint analysis over one function body
// and reports whether any return statement can carry a raw sentinel.
// report, if non-nil, is invoked for each such return (the sentinelerr
// analyzer's composition point); the summary builder passes nil.
func (s *summaries) sentinelReturns(fb *funcBody, fn *types.Func, cfg *Config, report func(ret *ast.ReturnStmt, expr ast.Expr)) bool {
	t := &sentinelTaint{s: s, cfg: cfg, pkg: fb.pkg}
	if sig, ok := fn.Type().(*types.Signature); ok {
		t.sig = sig
	}
	g := buildCFG(fb.body, nil)
	in := g.forwardMay(t.transfer, t.edgeFilter)

	tainted := false
	for _, blk := range g.blocks {
		facts := in[blk].clone()
		for _, atom := range blk.atoms {
			if ret, ok := atom.(*ast.ReturnStmt); ok {
				for _, e := range t.returnedErrorExprs(ret) {
					if t.taintedExpr(e, facts) {
						tainted = true
						if report != nil {
							report(ret, e)
						}
					}
				}
			}
			facts = t.apply(atom, facts)
		}
	}
	return tainted
}

// returnedErrorExprs lists the error-typed expressions a return
// statement yields; a bare return yields the named error results.
func (t *sentinelTaint) returnedErrorExprs(ret *ast.ReturnStmt) []ast.Expr {
	var out []ast.Expr
	if len(ret.Results) == 0 {
		if t.sig == nil {
			return nil
		}
		res := t.sig.Results()
		for i := 0; i < res.Len(); i++ {
			v := res.At(i)
			if v.Name() != "" && isErrorType(v.Type()) {
				// A synthetic node carrying the named-result object;
				// taintedExpr checks its fact directly (there is no AST
				// identifier to resolve through Uses).
				out = append(out, &namedResultExpr{obj: v})
			}
		}
		return out
	}
	for _, e := range ret.Results {
		tv := t.pkg.Info.TypeOf(e)
		if tv == nil {
			continue
		}
		if isErrorType(tv) {
			out = append(out, e)
			continue
		}
		// `return netsim.Call(...)`: a single multi-result call feeding the
		// return tuple — include the call if any element is an error.
		if tup, ok := tv.(*types.Tuple); ok && len(ret.Results) == 1 {
			for i := 0; i < tup.Len(); i++ {
				if isErrorType(tup.At(i).Type()) {
					out = append(out, e)
					break
				}
			}
		}
	}
	return out
}

// namedResultExpr is a synthetic expression node carrying a named
// result object (never type-checked, only inspected by taintedExpr).
type namedResultExpr struct {
	ast.Ident
	obj *types.Var
}

// transfer applies a block's atoms to the incoming fact set.
func (t *sentinelTaint) transfer(b *cfgBlock, in factSet) factSet {
	out := in.clone()
	for _, atom := range b.atoms {
		out = t.apply(atom, out)
	}
	return out
}

// apply processes one atom: assignments gen or kill taint on
// error-typed locals.
func (t *sentinelTaint) apply(atom ast.Node, facts factSet) factSet {
	as, ok := atom.(*ast.AssignStmt)
	if !ok {
		return facts
	}
	out := facts.clone()
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		// v, err := call(): the call's taint lands on every error LHS.
		taint := t.taintedExpr(as.Rhs[0], facts)
		for _, lhs := range as.Lhs {
			t.assignTo(lhs, taint, out)
		}
		return out
	}
	if len(as.Lhs) == len(as.Rhs) {
		for i, lhs := range as.Lhs {
			t.assignTo(lhs, t.taintedExpr(as.Rhs[i], facts), out)
		}
	}
	return out
}

func (t *sentinelTaint) assignTo(lhs ast.Expr, taint bool, facts factSet) {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := t.pkg.Info.Defs[id]
	if obj == nil {
		obj = t.pkg.Info.Uses[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || !isErrorType(v.Type()) {
		return
	}
	if taint {
		facts[v] = true
	} else {
		delete(facts, v)
	}
}

// taintedExpr reports whether evaluating e may yield a raw sentinel
// given the current facts.
func (t *sentinelTaint) taintedExpr(e ast.Expr, facts factSet) bool {
	switch x := ast.Unparen(e).(type) {
	case *namedResultExpr:
		return facts[x.obj]
	case *ast.Ident:
		if obj, ok := t.pkg.Info.Uses[x].(*types.Var); ok {
			if facts[obj] {
				return true
			}
			return t.isSentinelVar(obj)
		}
		return false
	case *ast.SelectorExpr:
		if obj, ok := t.pkg.Info.Uses[x.Sel].(*types.Var); ok {
			return t.isSentinelVar(obj)
		}
		return false
	case *ast.CallExpr:
		return t.taintedCall(x, facts)
	}
	return false
}

// taintedCall classifies a call's error result: funnels launder,
// transport sources and sentinel-summary callees taint, and wrapping
// helpers (fmt.Errorf with a tainted operand) keep the sentinel
// `errors.Is`-reachable so the taint survives.
func (t *sentinelTaint) taintedCall(call *ast.CallExpr, facts factSet) bool {
	if _, ok := matchMustCheck(t.pkg.Info, call, t.cfg.SentinelFunnels); ok {
		return false
	}
	if _, ok := matchMustCheck(t.pkg.Info, call, t.cfg.SentinelSources); ok {
		return true
	}
	if callee := funcFor(t.pkg.Info, call); callee != nil {
		if callee.Pkg() != nil && callee.Pkg().Path() == "fmt" && callee.Name() == "Errorf" {
			// Only %w keeps an operand `errors.Is`-reachable; a sentinel
			// flattened through %v or %s leaves the chain. With a constant
			// format the taint follows the %w operands exactly; otherwise
			// any tainted operand taints conservatively.
			if len(call.Args) > 0 {
				if format, ok := constantString(t.pkg.Info, call.Args[0]); ok {
					if idxs, parsed := wrapOperandIndexes(format); parsed {
						for _, i := range idxs {
							if i+1 < len(call.Args) && t.taintedExpr(call.Args[i+1], facts) {
								return true
							}
						}
						return false
					}
				}
			}
			for _, arg := range call.Args {
				if t.taintedExpr(arg, facts) {
					return true
				}
			}
			return false
		}
		for _, target := range t.s.graph.resolveTargets(callee) {
			if t.s.sentinel[target] {
				return true
			}
		}
	}
	return false
}

// edgeFilter refines facts on branches: the nil edge of an `err != nil`
// test kills err's taint (a nil error carries no sentinel), and the
// true edge of `errors.Is(err, SomeNonSentinel)` proves the error is a
// classified application error, not a raw transport failure.
func (t *sentinelTaint) edgeFilter(e cfgEdge, k factKey) bool {
	if e.cond == nil || e.kind == edgeSeq {
		return true
	}
	v, ok := k.(*types.Var)
	if !ok {
		return true
	}
	cond := ast.Unparen(e.cond)
	if bin, ok := cond.(*ast.BinaryExpr); ok {
		var errSide ast.Expr
		if isNilIdent(bin.Y) {
			errSide = bin.X
		} else if isNilIdent(bin.X) {
			errSide = bin.Y
		}
		if errSide != nil && t.exprIsVar(errSide, v) {
			// err == nil true-edge and err != nil false-edge are the
			// "no failure" paths.
			if (bin.Op.String() == "==" && e.kind == edgeCondTrue) ||
				(bin.Op.String() == "!=" && e.kind == edgeCondFalse) {
				return false
			}
		}
		return true
	}
	if call, ok := cond.(*ast.CallExpr); ok && e.kind == edgeCondTrue && len(call.Args) == 2 {
		if fn := funcFor(t.pkg.Info, call); fn != nil && fn.Name() == "Is" &&
			fn.Pkg() != nil && fn.Pkg().Path() == "errors" {
			if t.exprIsVar(call.Args[0], v) && !t.taintedExpr(call.Args[1], nil) {
				return false
			}
		}
	}
	return true
}

func (t *sentinelTaint) exprIsVar(e ast.Expr, v *types.Var) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	return t.pkg.Info.Uses[id] == v
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

func (t *sentinelTaint) isSentinelVar(v *types.Var) bool {
	if v.Pkg() == nil {
		return false
	}
	for _, spec := range t.cfg.SentinelVars {
		if v.Name() == spec.Name && hasPathSuffix(v.Pkg().Path(), spec.PkgSuffix) {
			return true
		}
	}
	return false
}

// constantString returns e's constant string value, if it has one.
func constantString(info *types.Info, e ast.Expr) (string, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// wrapOperandIndexes returns the 0-based operand positions consumed by
// %w verbs in a fmt format string. parsed is false when the format uses
// features the scanner doesn't model (explicit argument indexes), in
// which case the caller falls back to the conservative rule.
func wrapOperandIndexes(format string) (idxs []int, parsed bool) {
	arg := 0
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		if i >= len(format) {
			break
		}
		if format[i] == '%' {
			continue
		}
		// Flags, width, precision; each '*' consumes an operand.
		for i < len(format) {
			c := format[i]
			if c == '[' {
				return nil, false
			}
			if c == '*' {
				arg++
				i++
				continue
			}
			if strings.ContainsRune("+-# .0123456789", rune(c)) {
				i++
				continue
			}
			break
		}
		if i >= len(format) {
			break
		}
		if format[i] == 'w' {
			idxs = append(idxs, arg)
		}
		arg++
	}
	return idxs, true
}
