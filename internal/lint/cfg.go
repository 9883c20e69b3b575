package lint

import (
	"go/ast"
)

// This file is the control-flow layer of the dataflow analyzer
// (pageleak). It builds a basic-block CFG for one function body over
// the plain go/ast tree, then runs forward may-analyses on it.
//
// Design notes:
//
//   - Blocks hold "atoms": the straight-line statement and expression
//     nodes executed when control reaches the block, in execution
//     order. Composite statements contribute only their non-body parts
//     (an IfStmt contributes Init and Cond; the branches become
//     separate blocks), so a transfer function may ast.Inspect an atom
//     without ever seeing a nested body twice.
//   - Edges carry a kind (sequential, condition-true, condition-false)
//     and the condition expression, so an analyzer can refine facts on
//     branches such as `if err != nil`.
//   - Defer calls are both atoms (their arguments are evaluated in
//     place) and are collected separately in source order; analyzers
//     process the deferred calls at the exit block.
//   - A call to panic terminates its path: no edge leaves the block,
//     which keeps must-release analyses from flagging assertion
//     failures as leaks.
//
// The builder is deliberately conservative where Go control flow gets
// exotic: goto edges go straight to the exit block (the repository has
// none), and select-without-default still edges every clause to the
// join.

// edgeKind classifies a CFG edge.
type edgeKind int

const (
	edgeSeq edgeKind = iota
	edgeCondTrue
	edgeCondFalse
)

// cfgEdge is one directed control-flow edge.
type cfgEdge struct {
	to   *cfgBlock
	kind edgeKind
	// cond is the branch condition for edgeCondTrue/edgeCondFalse.
	cond ast.Expr
}

// cfgBlock is one basic block.
type cfgBlock struct {
	idx   int
	atoms []ast.Node
	succs []cfgEdge
}

// funcCFG is the control-flow graph of one function body.
type funcCFG struct {
	blocks []*cfgBlock
	entry  *cfgBlock
	// exit is the single synthetic exit block; returns and the fallthrough
	// end of the body edge into it. Deferred calls conceptually run here.
	exit *cfgBlock
	// deferred lists every defer's call expression in source order.
	deferred []*ast.CallExpr
}

type cfgBuilder struct {
	g   *funcCFG
	cur *cfgBlock
	// breakTo / continueTo are stacks of jump targets for the innermost
	// enclosing loops/switches; labels maps label names to their targets.
	breakTo    []*cfgBlock
	continueTo []*cfgBlock
	labels     map[string]*labelTargets
	// pendingLabel is set between seeing a LabeledStmt and its loop.
	pendingLabel string
	// isPanic reports whether a call expression diverges (never returns).
	isPanic func(*ast.CallExpr) bool
}

type labelTargets struct {
	breakTo    *cfgBlock
	continueTo *cfgBlock
}

// buildCFG constructs the CFG for a function body. isPanic, if non-nil,
// marks call expressions that never return (panic and the invariant
// helpers); their blocks get no outgoing edges.
func buildCFG(body *ast.BlockStmt, isPanic func(*ast.CallExpr) bool) *funcCFG {
	if isPanic == nil {
		isPanic = func(*ast.CallExpr) bool { return false }
	}
	b := &cfgBuilder{
		g:       &funcCFG{},
		labels:  make(map[string]*labelTargets),
		isPanic: isPanic,
	}
	b.g.exit = b.newBlock() // idx 0; kept succ-less
	b.g.entry = b.newBlock()
	b.cur = b.g.entry
	b.stmtList(body.List)
	if b.cur != nil {
		b.edge(b.cur, b.g.exit, edgeSeq, nil)
	}
	return b.g
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{idx: len(b.g.blocks)}
	b.g.blocks = append(b.g.blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *cfgBlock, kind edgeKind, cond ast.Expr) {
	from.succs = append(from.succs, cfgEdge{to: to, kind: kind, cond: cond})
}

// atom appends a node to the current block. A nil current block means
// the code is unreachable (after return/panic/branch); a fresh block
// with no predecessors is started so atoms are still visible to
// analyzers that scan blocks linearly.
func (b *cfgBuilder) atom(n ast.Node) {
	if n == nil {
		return
	}
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	b.cur.atoms = append(b.cur.atoms, n)
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// seal ends the current path (return, panic, break, continue, goto).
func (b *cfgBuilder) seal() { b.cur = nil }

// ensure returns the current block, creating an unreachable one if the
// path was sealed.
func (b *cfgBuilder) ensure() *cfgBlock {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	return b.cur
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(st.List)

	case *ast.IfStmt:
		if st.Init != nil {
			b.atom(st.Init)
		}
		b.atom(st.Cond)
		head := b.ensure()
		thenB := b.newBlock()
		join := b.newBlock()
		b.edge(head, thenB, edgeCondTrue, st.Cond)
		b.cur = thenB
		b.stmtList(st.Body.List)
		if b.cur != nil {
			b.edge(b.cur, join, edgeSeq, nil)
		}
		if st.Else != nil {
			elseB := b.newBlock()
			b.edge(head, elseB, edgeCondFalse, st.Cond)
			b.cur = elseB
			b.stmt(st.Else)
			if b.cur != nil {
				b.edge(b.cur, join, edgeSeq, nil)
			}
		} else {
			b.edge(head, join, edgeCondFalse, st.Cond)
		}
		b.cur = join

	case *ast.ForStmt:
		if st.Init != nil {
			b.atom(st.Init)
		}
		head := b.newBlock()
		b.edge(b.ensure(), head, edgeSeq, nil)
		after := b.newBlock()
		body := b.newBlock()
		if st.Cond != nil {
			head.atoms = append(head.atoms, st.Cond)
			b.edge(head, body, edgeCondTrue, st.Cond)
			b.edge(head, after, edgeCondFalse, st.Cond)
		} else {
			// for {}: the only way to after is a break.
			b.edge(head, body, edgeSeq, nil)
		}
		post := b.newBlock() // continue target (runs Post, loops to head)
		if st.Post != nil {
			post.atoms = append(post.atoms, st.Post)
		}
		b.edge(post, head, edgeSeq, nil)
		b.pushLoop(after, post)
		b.cur = body
		b.stmtList(st.Body.List)
		if b.cur != nil {
			b.edge(b.cur, post, edgeSeq, nil)
		}
		b.popLoop()
		b.cur = after

	case *ast.RangeStmt:
		b.atom(st.X)
		head := b.newBlock()
		b.edge(b.ensure(), head, edgeSeq, nil)
		// The per-iteration key/value binding is modeled as a synthetic
		// assignment atom so analyzers see Key/Value as assigned from the
		// range operand.
		if st.Key != nil || st.Value != nil {
			assign := &ast.AssignStmt{Tok: st.Tok, Rhs: []ast.Expr{st.X}}
			if st.Key != nil {
				assign.Lhs = append(assign.Lhs, st.Key)
			}
			if st.Value != nil {
				assign.Lhs = append(assign.Lhs, st.Value)
			}
			if assign.TokPos == 0 {
				assign.TokPos = st.For
			}
			head.atoms = append(head.atoms, assign)
		}
		after := b.newBlock()
		body := b.newBlock()
		b.edge(head, body, edgeCondTrue, nil)
		b.edge(head, after, edgeCondFalse, nil)
		b.pushLoop(after, head)
		b.cur = body
		b.stmtList(st.Body.List)
		if b.cur != nil {
			b.edge(b.cur, head, edgeSeq, nil)
		}
		b.popLoop()
		b.cur = after

	case *ast.SwitchStmt:
		if st.Init != nil {
			b.atom(st.Init)
		}
		if st.Tag != nil {
			b.atom(st.Tag)
		}
		b.caseClauses(st.Body.List, func(cc *ast.CaseClause, blk *cfgBlock) {
			for _, e := range cc.List {
				blk.atoms = append(blk.atoms, e)
			}
		})

	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			b.atom(st.Init)
		}
		b.atom(st.Assign)
		b.caseClauses(st.Body.List, func(cc *ast.CaseClause, blk *cfgBlock) {})

	case *ast.SelectStmt:
		head := b.ensure()
		join := b.newBlock()
		hasDefault := false
		for _, c := range st.Body.List {
			cc := c.(*ast.CommClause)
			blk := b.newBlock()
			b.edge(head, blk, edgeSeq, nil)
			if cc.Comm != nil {
				blk.atoms = append(blk.atoms, cc.Comm)
			} else {
				hasDefault = true
			}
			b.pushBreak(join)
			b.cur = blk
			b.stmtList(cc.Body)
			if b.cur != nil {
				b.edge(b.cur, join, edgeSeq, nil)
			}
			b.popBreak()
		}
		_ = hasDefault // a default-less select still reaches join via its clauses
		b.cur = join

	case *ast.ReturnStmt:
		b.atom(st)
		b.edge(b.ensure(), b.g.exit, edgeSeq, nil)
		b.seal()

	case *ast.BranchStmt:
		b.atom(st)
		switch st.Tok.String() {
		case "break":
			if t := b.branchTarget(st, true); t != nil {
				b.edge(b.ensure(), t, edgeSeq, nil)
			}
		case "continue":
			if t := b.branchTarget(st, false); t != nil {
				b.edge(b.ensure(), t, edgeSeq, nil)
			}
		case "goto":
			// Conservative: treat as leaving the function.
			b.edge(b.ensure(), b.g.exit, edgeSeq, nil)
		case "fallthrough":
			// Handled structurally by caseClauses; nothing extra here.
			return
		}
		b.seal()

	case *ast.LabeledStmt:
		b.pendingLabel = st.Label.Name
		b.stmt(st.Stmt)
		b.pendingLabel = ""

	case *ast.DeferStmt:
		b.atom(st)
		b.g.deferred = append(b.g.deferred, st.Call)

	case *ast.ExprStmt:
		b.atom(st)
		if call, ok := ast.Unparen(st.X).(*ast.CallExpr); ok && b.isPanic(call) {
			b.seal()
		}

	default:
		// Assignments, declarations, go statements, sends, inc/dec,
		// empty statements: straight-line atoms.
		b.atom(st)
	}
}

// caseClauses builds the shared switch/type-switch shape: every clause
// is a successor of the head; a missing default adds a direct edge to
// the join; fallthrough edges each clause into the next.
func (b *cfgBuilder) caseClauses(list []ast.Stmt, seed func(*ast.CaseClause, *cfgBlock)) {
	head := b.ensure()
	join := b.newBlock()
	hasDefault := false
	blocks := make([]*cfgBlock, len(list))
	clauses := make([]*ast.CaseClause, len(list))
	for i, c := range list {
		cc := c.(*ast.CaseClause)
		clauses[i] = cc
		blocks[i] = b.newBlock()
		seed(cc, blocks[i])
		b.edge(head, blocks[i], edgeSeq, nil)
		if cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		b.edge(head, join, edgeSeq, nil)
	}
	for i, cc := range clauses {
		b.pushBreak(join)
		b.cur = blocks[i]
		// fallthrough must be the final statement; detect it so the edge
		// goes to the next clause instead of the join.
		fallsThrough := false
		body := cc.Body
		if n := len(body); n > 0 {
			if br, ok := body[n-1].(*ast.BranchStmt); ok && br.Tok.String() == "fallthrough" {
				fallsThrough = true
				body = body[:n-1]
			}
		}
		b.stmtList(body)
		if b.cur != nil {
			if fallsThrough && i+1 < len(blocks) {
				b.edge(b.cur, blocks[i+1], edgeSeq, nil)
			} else {
				b.edge(b.cur, join, edgeSeq, nil)
			}
		}
		b.popBreak()
	}
	b.cur = join
}

func (b *cfgBuilder) pushLoop(breakTo, continueTo *cfgBlock) {
	b.breakTo = append(b.breakTo, breakTo)
	b.continueTo = append(b.continueTo, continueTo)
	if b.pendingLabel != "" {
		b.labels[b.pendingLabel] = &labelTargets{breakTo: breakTo, continueTo: continueTo}
		b.pendingLabel = ""
	}
}

func (b *cfgBuilder) popLoop() {
	b.breakTo = b.breakTo[:len(b.breakTo)-1]
	b.continueTo = b.continueTo[:len(b.continueTo)-1]
}

func (b *cfgBuilder) pushBreak(to *cfgBlock) {
	b.breakTo = append(b.breakTo, to)
	b.continueTo = append(b.continueTo, nil)
	if b.pendingLabel != "" {
		b.labels[b.pendingLabel] = &labelTargets{breakTo: to}
		b.pendingLabel = ""
	}
}

func (b *cfgBuilder) popBreak() { b.popLoop() }

func (b *cfgBuilder) branchTarget(st *ast.BranchStmt, isBreak bool) *cfgBlock {
	if st.Label != nil {
		if lt := b.labels[st.Label.Name]; lt != nil {
			if isBreak {
				return lt.breakTo
			}
			return lt.continueTo
		}
		return b.g.exit // unknown label: conservative
	}
	stack := b.continueTo
	if isBreak {
		stack = b.breakTo
	}
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i] != nil {
			return stack[i]
		}
	}
	return b.g.exit
}

// ---------------------------------------------------------------------
// Forward may-analysis.

// factKey identifies one dataflow fact; keys must be comparable.
type factKey any

// factSet is a set of live facts.
type factSet map[factKey]bool

func (f factSet) clone() factSet {
	out := make(factSet, len(f))
	for k := range f {
		out[k] = true
	}
	return out
}

// forwardMay runs a forward may-analysis to fixpoint and returns the
// fact set at the ENTRY of each block. transfer maps a block's entry
// facts to its exit facts (it must not mutate in). edgeFilter, if
// non-nil, can drop a fact on a specific edge — this is how `if err !=
// nil` branches kill the facts whose failure the branch handles.
func (g *funcCFG) forwardMay(
	transfer func(b *cfgBlock, in factSet) factSet,
	edgeFilter func(e cfgEdge, k factKey) bool,
) map[*cfgBlock]factSet {
	in := make(map[*cfgBlock]factSet, len(g.blocks))
	queued := make(map[*cfgBlock]bool, len(g.blocks))
	// Every block is processed at least once (facts are generated in
	// blocks whose predecessors carry none), then re-processed whenever
	// its entry set grows.
	work := make([]*cfgBlock, 0, len(g.blocks))
	for _, blk := range g.blocks {
		in[blk] = factSet{}
		work = append(work, blk)
		queued[blk] = true
	}
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		queued[blk] = false
		out := transfer(blk, in[blk])
		for _, e := range blk.succs {
			dst := in[e.to]
			grew := false
			for k := range out {
				if edgeFilter != nil && !edgeFilter(e, k) {
					continue
				}
				if !dst[k] {
					dst[k] = true
					grew = true
				}
			}
			if grew && !queued[e.to] {
				queued[e.to] = true
				work = append(work, e.to)
			}
		}
	}
	return in
}
