package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// InodeAliasAnalyzer enforces the one rule of a shared inode: read it
// where it lies, Clone it before you write.
//
// A committed *storage.Inode is shared by everyone who reads it: the
// container hands out the very inode CommitInode installed, and the
// simulated network passes reply payloads by pointer, so the inode in an
// open, create or pull reply is the storage site's committed one too.
// Passing it on — into the next reply, a handle, a lease — is the
// design. Writing through it changes a committed version behind every
// other holder's back, in a way no version vector records.
//
// A value is tainted when it is an AliasTypes pointer that is the first
// result of a Config.AliasSourceCalls call (`ino, err := c.GetInode(n)`)
// or is read off the reply of a typed exchange
// (Config.AliasDecodeCalls): `r, err := netsim.Call(...)` makes r a
// decode root and `r.Ino` a taint source. Taint is tracked through local
// identifiers with the forward may-analysis on the CFG; reassigning the
// identifier from a Clone (or any other call) kills the taint. A finding
// fires on a store into a field or element through the alias.
//
// The analysis is intraprocedural and follows no structure field: an
// inode that reaches a writer through a handle or a helper's parameter
// is the business of the locusinvariants twin check in storage.
func InodeAliasAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "inodealias",
		Doc:  "Clone a shared inode pointer (GetInode's, or an RPC reply's) before writing through it",
		Run:  runInodeAlias,
	}
}

type inodeAlias struct {
	prog *Program
	cfg  *Config
	pkg  *Package
	sup  *suppressions

	findings []Finding
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
// reports writes through live taints and through direct taint-source
// expressions.
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
			// Reassigned from anything else (a Clone, a literal, nil): the
			// identifier no longer names a shared inode.
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

// checkAtom reports a store through a tainted value: ino.F = v,
// ino.Pages[i] = v, r.Ino.F = v.
func (a *inodeAlias) checkAtom(atom ast.Node, facts factSet) {
	st, ok := atom.(*ast.AssignStmt)
	if !ok {
		return
	}
	for _, lhs := range st.Lhs {
		if isPlainIdent(lhs) {
			continue // rebinding the identifier, tracked by updateAtom
		}
		if a.taintedExpr(exprRoot(lhs), facts) || a.mutatesThroughSource(lhs, facts) {
			a.report(lhs.Pos(), "writes through a shared %s without Clone; every other holder of it sees the write")
		}
	}
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

// taintSource recognizes the two shapes a shared inode arrives in: a
// call that hands one out (`c.GetInode(n)`), and a field selection
// producing an AliasTypes pointer off a decode-root identifier
// (`r, err := netsim.Call(...); ... r.Ino`).
func (a *inodeAlias) taintSource(e ast.Expr, facts factSet) bool {
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		_, ok = matchMustCheck(a.pkg.Info, call, a.cfg.AliasSourceCalls)
		return ok
	}
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
