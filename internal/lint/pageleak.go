package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// PageLeakAnalyzer proves that every storage allocation — a shadow page
// from Container.WritePage or AdoptPage, a reserved inode number from
// Container.AllocInode — reaches a release, commit, or stage on every
// path out of the allocating function.
//
// This is the compile-time generalization of the fsck page-leak check:
// fsck finds a leaked page after a run has already lost it, while this
// analyzer finds the `return err` that skips the free. The bug class is
// real here — a page written into a shadow inode that is never
// committed or freed is invisible to every replica and survives until
// the next garbage collection, and a propagation pull's failure returns
// in prop.go are exactly where such early returns accumulate.
//
// The analysis runs on the CFG (cfg.go) as a forward may-analysis:
//
//   - gen: an assignment whose RHS is a single PageAlloc call with an
//     identifier LHS starts a "fresh" fact carrying the alloc site, the
//     result object, and the error object (if bound).
//   - error refinement: on the true edge of `if err != nil` (and the
//     false edge of `err == nil`) the fresh fact for that err is
//     killed — a failed allocation has nothing to leak.
//   - transfer: storing the value into an *owned root* (a local built
//     from a composite literal, new(), or a FreshFuncs call such as
//     Clone) parks the resource in a structure the function still owns;
//     the fact survives as a "held" fact that tracks the whole alias
//     set and no longer honors the error refinement. This is what keeps
//     the classic loop shape honest: pages appended to a fresh inode's
//     page list still leak if a later iteration fails.
//   - kill: passing any alias as a call argument (FreePages,
//     CommitInode, any helper: the callee is trusted with it),
//     returning it, storing it into a root the function does not own
//     (the in-core inode, a receiver field), sending it, or capturing
//     it in a function literal all transfer responsibility elsewhere.
//   - report: a fact still live at function exit — after applying
//     deferred calls — leaks on some path; the finding points at the
//     allocation.
//
// Function literals are analyzed as independent roots; their free
// variables are foreign roots, so storing into one counts as a release
// to the enclosing owner.
func PageLeakAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "pageleak",
		Doc:  "every storage page/inode allocation must reach a free, commit, or stage on all paths",
		Run:  runPageLeak,
	}
}

// pageFact is one tracked allocation. Fact identity is the alloc site
// plus the generation: fresh facts honor the `if err != nil` edge
// refinement, held facts (parked in an owned structure) do not.
type pageFact struct {
	site *ast.CallExpr
	held bool
}

type pageLeak struct {
	prog *Program
	cfg  *Config
	pkg  *Package
	sup  *suppressions

	// aliases maps each alloc site to the closure of local objects its
	// value may flow into (flow-insensitive; liveness is flow-sensitive).
	aliases map[*ast.CallExpr]map[types.Object]bool
	// errs maps each alloc site to the error object bound at the
	// allocation, for the branch refinement.
	errs map[*ast.CallExpr]types.Object
	// bodyPos delimits the analyzed body; objects declared outside it
	// are foreign roots.
	bodyPos, bodyEnd token.Pos
	// owned marks locals assigned from composite literals, new(), or
	// FreshFuncs calls anywhere in the body.
	owned map[types.Object]bool
}

func runPageLeak(prog *Program, cfg *Config) []Finding {
	var out []Finding
	for _, pkg := range prog.Targets {
		sup := suppressionsFor(prog, pkg, cfg)
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				out = append(out, analyzePageLeakBody(prog, cfg, pkg, sup, fn.Body)...)
				// Nested literals are separate roots.
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					if lit, ok := n.(*ast.FuncLit); ok {
						out = append(out, analyzePageLeakBody(prog, cfg, pkg, sup, lit.Body)...)
					}
					return true
				})
			}
		}
	}
	return out
}

func analyzePageLeakBody(prog *Program, cfg *Config, pkg *Package, sup *suppressions, body *ast.BlockStmt) []Finding {
	a := &pageLeak{
		prog:    prog,
		cfg:     cfg,
		pkg:     pkg,
		sup:     sup,
		aliases: make(map[*ast.CallExpr]map[types.Object]bool),
		errs:    make(map[*ast.CallExpr]types.Object),
		bodyPos: body.Pos(),
		bodyEnd: body.End(),
		owned:   make(map[types.Object]bool),
	}
	return a.run(body)
}

func (a *pageLeak) run(body *ast.BlockStmt) []Finding {
	a.collectAllocs(body)
	if len(a.aliases) == 0 {
		return nil
	}
	a.collectOwned(body)
	a.closeAliases(body)

	g := buildCFG(body, a.panicCall)
	in := g.forwardMay(a.transfer, a.edgeFilter)

	// Facts live at exit entry, minus those released by deferred calls,
	// leak on some path.
	live := in[g.exit]
	var out []Finding
	for k := range live {
		f := k.(pageFact)
		if a.deferReleases(g, f) {
			continue
		}
		pos := a.prog.Fset.Position(f.site.Pos())
		if a.sup.allowed(pos, "pageleak") {
			continue
		}
		out = append(out, Finding{
			Pos:      pos,
			Analyzer: "pageleak",
			Message: fmt.Sprintf("%s may leak: a path reaches function exit without freeing, committing, or staging the result",
				a.allocName(f.site)),
		})
	}
	return out
}

// collectAllocs finds PageAlloc call assignments and seeds alias sets.
func (a *pageLeak) collectAllocs(body *ast.BlockStmt) {
	inspectNoFuncLit(body, func(n ast.Node) {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return
		}
		if _, ok := matchMustCheck(a.pkg.Info, call, a.cfg.PageAlloc); !ok {
			return
		}
		if len(as.Lhs) == 0 {
			return
		}
		resObj := a.identObj(as.Lhs[0])
		if resObj == nil {
			// Result discarded or stored straight into a structure; the
			// uncheckedcall analyzer covers discarded errors, and direct
			// stores are rare enough to leave to review.
			return
		}
		a.aliases[call] = map[types.Object]bool{resObj: true}
		if len(as.Lhs) > 1 {
			if eo := a.identObj(as.Lhs[1]); eo != nil {
				a.errs[call] = eo
			}
		}
	})
}

// collectOwned marks locals assigned from freshly-owned values.
func (a *pageLeak) collectOwned(body *ast.BlockStmt) {
	inspectNoFuncLit(body, func(n ast.Node) {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return
		}
		for i, lhs := range as.Lhs {
			obj := a.identObj(lhs)
			if obj == nil || !a.isLocal(obj) {
				continue
			}
			if a.freshExpr(as.Rhs[i]) {
				a.owned[obj] = true
			}
		}
	})
}

// freshExpr reports whether an expression produces a freshly-owned
// value: a composite literal, &literal, new(...), or a FreshFuncs call.
func (a *pageLeak) freshExpr(e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			_, ok := ast.Unparen(x.X).(*ast.CompositeLit)
			return ok
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "new" {
			return true
		}
		if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
			for _, f := range a.cfg.FreshFuncs {
				if sel.Sel.Name == f {
					return true
				}
			}
		}
	}
	return false
}

// closeAliases grows each alloc's alias set: an assignment whose RHS
// mentions an alias and whose LHS roots a local adds that local.
func (a *pageLeak) closeAliases(body *ast.BlockStmt) {
	for changed := true; changed; {
		changed = false
		inspectNoFuncLit(body, func(n ast.Node) {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return
			}
			for site, set := range a.aliases {
				if !a.mentionsAny(as.Rhs, set) {
					continue
				}
				for _, lhs := range as.Lhs {
					root := exprRoot(lhs)
					obj := a.identObj(root)
					if obj == nil || set[obj] {
						continue
					}
					if a.isLocal(obj) {
						set[obj] = true
						changed = true
					}
				}
				_ = site
			}
		})
	}
}

// transfer is the block transfer function of the forward may-analysis.
func (a *pageLeak) transfer(b *cfgBlock, in factSet) factSet {
	out := in.clone()
	for _, atom := range b.atoms {
		a.transferAtom(atom, out)
	}
	return out
}

func (a *pageLeak) transferAtom(atom ast.Node, out factSet) {
	// Gen: the alloc assignment itself.
	if as, ok := atom.(*ast.AssignStmt); ok && len(as.Rhs) == 1 {
		if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok {
			if _, tracked := a.aliases[call]; tracked {
				// Re-allocation at the same site supersedes prior state
				// of the fresh generation only; held facts persist.
				out[pageFact{site: call, held: false}] = true
				return
			}
		}
	}

	for site, set := range a.aliases {
		fresh := pageFact{site: site, held: false}
		held := pageFact{site: site, held: true}
		if !out[fresh] && !out[held] {
			continue
		}
		kill, park := a.atomEffect(atom, site, set)
		if park && out[fresh] {
			delete(out, fresh)
			out[held] = true
		}
		if kill {
			delete(out, fresh)
			delete(out, held)
		}
	}
}

// atomEffect classifies one atom's effect on one allocation: kill
// (responsibility handed off) or park (stored into an owned root).
func (a *pageLeak) atomEffect(atom ast.Node, site *ast.CallExpr, set map[types.Object]bool) (kill, park bool) {
	switch st := atom.(type) {
	case *ast.AssignStmt:
		for i, lhs := range st.Lhs {
			var rhs ast.Expr
			if len(st.Rhs) == len(st.Lhs) {
				rhs = st.Rhs[i]
			} else if len(st.Rhs) == 1 {
				rhs = st.Rhs[0]
			}
			if rhs == nil || !a.mentionsAny([]ast.Expr{rhs}, set) {
				continue
			}
			if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && call == site {
				continue // the alloc itself
			}
			if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
				continue // _ = pp keeps nothing: the page is still the function's
			}
			root := exprRoot(lhs)
			obj := a.identObj(root)
			switch {
			case obj != nil && set[obj] && isPlainIdent(lhs):
				// pp = pp-ish rebinding: nothing changes.
			case obj != nil && a.isLocal(obj) && (a.owned[obj] || isPlainIdent(lhs)):
				// Stored into a structure rooted at an owned local, or
				// plain aliasing to a new local: the function still owns
				// the resource — park it.
				park = true
			default:
				// Stored into a foreign structure (receiver field,
				// package state, free variable) or into a local that
				// merely aliases one (ino := sv.incore): released to
				// the structure's owner.
				kill = true
			}
		}
		// An alias used as a bare call argument on the RHS also releases
		// (e.g. x := f(pp)); append is the parking idiom handled above.
		for _, rhs := range st.Rhs {
			if a.argHandoff(rhs, set) {
				kill = true
			}
		}
	case *ast.ExprStmt:
		if a.argHandoff(st.X, set) {
			kill = true
		}
	case *ast.ReturnStmt:
		if a.mentionsAny(st.Results, set) {
			kill = true
		}
	case *ast.SendStmt:
		if a.mentionsAny([]ast.Expr{st.Value}, set) {
			kill = true
		}
	case *ast.GoStmt:
		if a.nodeMentions(st, set) {
			kill = true
		}
	case *ast.DeferStmt:
		if a.nodeMentions(st, set) {
			kill = true
		}
	default:
		// Any atom that captures an alias in a function literal hands
		// the resource to the closure.
		ast.Inspect(atom, func(x ast.Node) bool {
			if lit, ok := x.(*ast.FuncLit); ok {
				if a.nodeMentions(lit, set) {
					kill = true
				}
				return false
			}
			return true
		})
	}
	return kill, park
}

// argHandoff reports whether expr contains a call passing an alias as
// an argument (not counting append results handled as parking).
func (a *pageLeak) argHandoff(expr ast.Expr, set map[types.Object]bool) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			if a.nodeMentions(n, set) {
				found = true
			}
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
			return true // parking idiom; the assignment handles it
		}
		for _, arg := range call.Args {
			if a.mentionsAny([]ast.Expr{arg}, set) {
				found = true
			}
		}
		return true
	})
	return found
}

// edgeFilter implements the error refinement: on the branch where the
// allocation's error is non-nil, the fresh fact dies.
func (a *pageLeak) edgeFilter(e cfgEdge, k factKey) bool {
	f, ok := k.(pageFact)
	if !ok || f.held || e.cond == nil {
		return true
	}
	eo := a.errs[f.site]
	if eo == nil {
		return true
	}
	op, operand := nilCheck(e.cond)
	if operand == nil || a.identObj(operand) != eo {
		return true
	}
	// err != nil: fact dies on true edge. err == nil: dies on false edge.
	if op == token.NEQ && e.kind == edgeCondTrue {
		return false
	}
	if op == token.EQL && e.kind == edgeCondFalse {
		return false
	}
	return true
}

// deferReleases reports whether any deferred call releases the fact.
func (a *pageLeak) deferReleases(g *funcCFG, f pageFact) bool {
	set := a.aliases[f.site]
	for _, call := range g.deferred {
		if a.nodeMentions(call, set) {
			return true
		}
	}
	return false
}

// panicCall marks calls that never return.
func (a *pageLeak) panicCall(call *ast.CallExpr) bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
		return true
	}
	return false
}

// ---------------------------------------------------------------------
// helpers

func (a *pageLeak) identObj(e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := a.pkg.Info.Defs[id]; obj != nil {
		return obj
	}
	return a.pkg.Info.Uses[id]
}

func (a *pageLeak) isLocal(obj types.Object) bool {
	return obj.Pos() >= a.bodyPos && obj.Pos() <= a.bodyEnd
}

func (a *pageLeak) mentionsAny(exprs []ast.Expr, set map[types.Object]bool) bool {
	for _, e := range exprs {
		if e != nil && a.nodeMentions(e, set) {
			return true
		}
	}
	return false
}

func (a *pageLeak) nodeMentions(n ast.Node, set map[types.Object]bool) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok {
			if obj := a.identObj(id); obj != nil && set[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

func (a *pageLeak) allocName(site *ast.CallExpr) string {
	if fn := funcFor(a.pkg.Info, site); fn != nil {
		return "result of " + funcDisplayName(fn)
	}
	return "allocation"
}

// exprRoot peels selectors, indexes, and stars down to the base
// expression (x.F[i] -> x).
func exprRoot(e ast.Expr) ast.Expr {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return ast.Unparen(e)
		}
	}
}

func isPlainIdent(e ast.Expr) bool {
	_, ok := ast.Unparen(e).(*ast.Ident)
	return ok
}

// nilCheck recognizes `x != nil` / `x == nil` (either operand order)
// and returns the comparison operator and the non-nil operand.
func nilCheck(cond ast.Expr) (token.Token, ast.Expr) {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (be.Op != token.NEQ && be.Op != token.EQL) {
		return 0, nil
	}
	isNil := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == "nil"
	}
	switch {
	case isNil(be.Y):
		return be.Op, be.X
	case isNil(be.X):
		return be.Op, be.Y
	}
	return 0, nil
}

// inspectNoFuncLit walks a body's nodes without descending into nested
// function literals (they are separate analysis roots).
func inspectNoFuncLit(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}
