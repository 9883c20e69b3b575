package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// InodeAliasAnalyzer enforces the Clone-at-the-boundary discipline for
// shared metadata pointers.
//
// The simulated network passes message payloads by pointer, so an
// *storage.Inode pulled out of an RPC response aliases the sender's
// copy — often a pointer straight into the remote kernel's in-core
// state. Mutating it, or forwarding it into another response where a
// third site will mutate it, silently corrupts replica state that no
// version vector records (the bug class handlePullOpen avoids by
// sending GetInode's deep copy). The rule: a decoded alias may be read,
// but must be Cloned before it is mutated or before it escapes into
// another message, a return value, long-lived structure, or goroutine.
//
// A value is tainted when it is an AliasTypes pointer read off the
// reply of a typed exchange (Config.AliasDecodeCalls):
// `r, err := netsim.Call(...)` makes r a decode root and `r.Ino` a
// taint source. Taint is tracked through local identifiers with the
// forward may-analysis on the CFG; reassigning the identifier from a
// Clone (or any other call) kills the taint. Findings fire on:
//
//   - mutation through the alias (store into a field or element),
//   - escape: returned, placed in a composite literal, stored into a
//     non-local structure, sent on a channel, or referenced from a `go`
//     statement.
//
// Plain call arguments, field reads, and captures by synchronously
// invoked helper closures are not escapes: handlers legitimately read
// decoded metadata in place.
func InodeAliasAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "inodealias",
		Doc:  "Clone RPC-decoded inode pointers before mutating them or passing them on",
		Run:  runInodeAlias,
	}
}

type inodeAlias struct {
	prog *Program
	cfg  *Config
	pkg  *Package
	sup  *suppressions

	bodyPos, bodyEnd token.Pos
	findings         []Finding
	// reported dedups findings per position.
	reported map[string]bool
}

// decodeRootFact marks an identifier bound to a decoded reply
// (`r, err := netsim.Call(...)`); alias-typed field reads off it are
// taint sources.
type decodeRootFact struct{ obj types.Object }

func runInodeAlias(prog *Program, cfg *Config) []Finding {
	var out []Finding
	for _, pkg := range prog.Targets {
		if !pkgInScope(pkg, cfg.AliasPackages) {
			continue
		}
		sup := suppressionsFor(prog, pkg, cfg)
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				out = append(out, analyzeInodeAliasBody(prog, cfg, pkg, sup, fn.Body)...)
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					if lit, ok := n.(*ast.FuncLit); ok {
						out = append(out, analyzeInodeAliasBody(prog, cfg, pkg, sup, lit.Body)...)
					}
					return true
				})
			}
		}
	}
	return out
}

func analyzeInodeAliasBody(prog *Program, cfg *Config, pkg *Package, sup *suppressions, body *ast.BlockStmt) []Finding {
	a := &inodeAlias{
		prog:     prog,
		cfg:      cfg,
		pkg:      pkg,
		sup:      sup,
		bodyPos:  body.Pos(),
		bodyEnd:  body.End(),
		reported: make(map[string]bool),
	}
	g := buildCFG(body, nil)
	in := g.forwardMay(a.transfer, nil)
	// transfer records findings as a side effect; forwardMay visits every
	// reachable block at least once, and `reported` dedups revisits.
	_ = in
	return a.findings
}

// transfer both propagates taint facts (keys are types.Object) and
// reports misuse of live taints and of direct taint-source expressions.
func (a *inodeAlias) transfer(b *cfgBlock, in factSet) factSet {
	out := in.clone()
	for _, atom := range b.atoms {
		a.checkAtom(atom, out)
		a.updateAtom(atom, out)
	}
	return out
}

// updateAtom gens and kills taint facts.
func (a *inodeAlias) updateAtom(atom ast.Node, out factSet) {
	as, ok := atom.(*ast.AssignStmt)
	if !ok {
		return
	}
	for i, lhs := range as.Lhs {
		obj := a.identObj(lhs)
		if obj == nil {
			continue
		}
		var rhs ast.Expr
		if len(as.Rhs) == len(as.Lhs) {
			rhs = as.Rhs[i]
		} else if len(as.Rhs) == 1 && i == 0 {
			rhs = as.Rhs[0] // x, ok := m[k] / v, err := call()
		}
		if rhs == nil {
			continue
		}
		switch {
		case a.taintSource(rhs, out):
			out[factKey(obj)] = true
			delete(out, factKey(decodeRootFact{obj}))
		case a.taintedExpr(rhs, out):
			// Alias of an alias: x := ino.
			out[factKey(obj)] = true
			delete(out, factKey(decodeRootFact{obj}))
		case a.decodeSource(rhs):
			// r, err := netsim.Call(...): r roots future decode reads.
			out[factKey(decodeRootFact{obj})] = true
			delete(out, factKey(obj))
		default:
			// Reassigned from anything else (Clone, fresh fetch, nil):
			// the identifier no longer aliases the decode.
			delete(out, factKey(obj))
			delete(out, factKey(decodeRootFact{obj}))
		}
	}
}

// decodeSource recognizes a typed exchange whose first result is the
// peer's reply.
func (a *inodeAlias) decodeSource(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	_, ok = matchMustCheck(a.pkg.Info, call, a.cfg.AliasDecodeCalls)
	return ok
}

// checkAtom reports mutation/escape of tainted values within one atom.
func (a *inodeAlias) checkAtom(atom ast.Node, facts factSet) {
	switch st := atom.(type) {
	case *ast.AssignStmt:
		for i, lhs := range st.Lhs {
			// Mutation through the alias: ino.F = v, ino.Pages[i] = v.
			if !isPlainIdent(lhs) {
				root := exprRoot(lhs)
				if a.taintedExpr(root, facts) || a.mutatesThroughSource(lhs, facts) {
					a.report(lhs.Pos(), "mutates an RPC-decoded %s without Clone; the sender's copy is aliased")
				}
			}
			// Escape by storing a taint into a foreign structure.
			var rhs ast.Expr
			if len(st.Rhs) == len(st.Lhs) {
				rhs = st.Rhs[i]
			} else if len(st.Rhs) == 1 {
				rhs = st.Rhs[0]
			}
			if rhs == nil {
				continue
			}
			if isPlainIdent(lhs) {
				continue // pure aliasing, tracked by updateAtom
			}
			rootObj := a.identObj(exprRoot(lhs))
			local := rootObj != nil && a.isLocal(rootObj)
			if !local && (a.escapingTaint(rhs, facts)) {
				a.report(rhs.Pos(), "stores an RPC-decoded %s into shared state without Clone")
			}
		}
		for _, rhs := range st.Rhs {
			a.checkCompositeEscape(rhs, facts)
		}
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			if a.escapingTaint(r, facts) {
				a.report(r.Pos(), "returns an RPC-decoded %s without Clone; the callee and sender now share it")
			}
			a.checkCompositeEscape(r, facts)
		}
	case *ast.SendStmt:
		if a.escapingTaint(st.Value, facts) {
			a.report(st.Value.Pos(), "sends an RPC-decoded %s without Clone")
		}
		a.checkCompositeEscape(st.Value, facts)
	case *ast.GoStmt:
		if a.mentionsTaint(st, facts) {
			a.report(st.Pos(), "shares an RPC-decoded %s with a goroutine without Clone")
		}
	case *ast.ExprStmt:
		a.checkCompositeEscape(st.X, facts)
	case ast.Expr:
		a.checkCompositeEscape(st, facts)
	}
}

// escapingTaint reports whether e is itself a tainted value: a tainted
// identifier or a direct taint-source expression (not a Clone of one).
func (a *inodeAlias) escapingTaint(e ast.Expr, facts factSet) bool {
	e = ast.Unparen(e)
	if obj := a.identObj(e); obj != nil {
		return facts[factKey(obj)]
	}
	return a.taintSource(e, facts)
}

// mutatesThroughSource reports whether an assignment target dereferences
// an alias-typed taint-source subexpression (r.Ino.Pages[i] = v for a
// decode root r).
func (a *inodeAlias) mutatesThroughSource(lhs ast.Expr, facts factSet) bool {
	found := false
	ast.Inspect(lhs, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok && a.taintSource(e, facts) {
			found = true
		}
		return !found
	})
	return found
}

// checkCompositeEscape flags tainted values used as composite-literal
// elements — the `&openResp{Ino: r.Ino}` shape that forwards a decoded
// pointer into the next response.
func (a *inodeAlias) checkCompositeEscape(e ast.Expr, facts factSet) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			// A synchronously invoked helper closure may read captured
			// taints; concurrent sharing is caught at the go statement.
			return false
		}
		lit, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		for _, el := range lit.Elts {
			v := el
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				v = kv.Value
			}
			if a.escapingTaint(v, facts) {
				a.report(v.Pos(), "forwards an RPC-decoded %s into a composite literal without Clone")
			}
		}
		return true
	})
}

// taintSource recognizes the decode shape: a field selection producing
// an AliasTypes pointer off a decode-root identifier
// (`r, err := netsim.Call(...); ... r.Ino`).
func (a *inodeAlias) taintSource(e ast.Expr, facts factSet) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	t := a.pkg.Info.TypeOf(sel)
	if t == nil || !a.aliasType(t) {
		return false
	}
	obj := a.identObj(sel.X)
	return obj != nil && facts[factKey(decodeRootFact{obj})]
}

func (a *inodeAlias) aliasType(t types.Type) bool {
	ptr, ok := t.Underlying().(*types.Pointer)
	if !ok {
		return false
	}
	for _, spec := range a.cfg.AliasTypes {
		if typeMatches(ptr.Elem(), spec.PkgSuffix, spec.Type) {
			return true
		}
	}
	return false
}

// taintedExpr reports whether e is a tainted identifier.
func (a *inodeAlias) taintedExpr(e ast.Expr, facts factSet) bool {
	obj := a.identObj(e)
	return obj != nil && facts[factKey(obj)]
}

func (a *inodeAlias) mentionsTaint(n ast.Node, facts factSet) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok {
			if obj := a.identObj(id); obj != nil && facts[factKey(obj)] {
				found = true
			}
		}
		return !found
	})
	return found
}

func (a *inodeAlias) report(pos token.Pos, msgFmt string) {
	p := a.prog.Fset.Position(pos)
	key := p.String()
	if a.reported[key] || a.sup.allowed(p, "inodealias") {
		return
	}
	a.reported[key] = true
	name := "inode"
	if len(a.cfg.AliasTypes) > 0 {
		name = a.cfg.AliasTypes[0].Type
	}
	a.findings = append(a.findings, Finding{
		Pos:      p,
		Analyzer: "inodealias",
		Message:  fmt.Sprintf(msgFmt, name),
	})
}

func (a *inodeAlias) identObj(e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := a.pkg.Info.Defs[id]; obj != nil {
		return obj
	}
	return a.pkg.Info.Uses[id]
}

func (a *inodeAlias) isLocal(obj types.Object) bool {
	return obj.Pos() >= a.bodyPos && obj.Pos() <= a.bodyEnd
}

// pkgInScope reports whether a package matches any of the suffixes.
func pkgInScope(pkg *Package, suffixes []string) bool {
	for _, s := range suffixes {
		if hasPathSuffix(pkg.Path, s) {
			return true
		}
	}
	return false
}
