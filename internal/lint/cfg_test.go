package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// parseBody parses one function declaration and returns its body.
func parseBody(t *testing.T, fn string) *ast.BlockStmt {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "cfg_test_src.go", "package x\n"+fn, 0)
	if err != nil {
		t.Fatalf("parsing test function: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			return fd.Body
		}
	}
	t.Fatal("no function declaration in test source")
	return nil
}

// atomString finds the first atom in a block list matching pred.
func blockWithAssign(g *funcCFG, name string) *cfgBlock {
	for _, blk := range g.blocks {
		for _, a := range blk.atoms {
			as, ok := a.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != 1 {
				continue
			}
			if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name == name {
				return blk
			}
		}
	}
	return nil
}

// TestCFGForwardMayUnion checks the may-union at a join: a fact
// generated in one branch is live at the join and at exit even though
// the other branch never generated it.
func TestCFGForwardMayUnion(t *testing.T) {
	t.Parallel()
	body := parseBody(t, `
func f(a bool) int {
	x := 0
	if a {
		y := 1
		_ = y
	}
	w := 3
	return w
}`)
	g := buildCFG(body, nil)
	genBlock := blockWithAssign(g, "y")
	if genBlock == nil {
		t.Fatal("missing gen block")
	}
	const fact = "from-then-branch"
	in := g.forwardMay(func(b *cfgBlock, in factSet) factSet {
		out := in.clone()
		if b == genBlock {
			out[fact] = true
		}
		return out
	}, nil)
	if !in[g.exit][fact] {
		t.Error("fact generated on one branch should reach exit (may-analysis)")
	}
	joinB := blockWithAssign(g, "w")
	if joinB == nil || !in[joinB][fact] {
		t.Error("fact should be live at the join block")
	}
}

// TestCFGForwardMayEdgeFilter checks that an edge filter kills a fact
// on a specific branch edge, the mechanism behind the `if err != nil`
// refinement.
func TestCFGForwardMayEdgeFilter(t *testing.T) {
	t.Parallel()
	body := parseBody(t, `
func f(err error) int {
	x := 0
	if err != nil {
		y := 1
		_ = y
	}
	w := 3
	return w
}`)
	g := buildCFG(body, nil)
	entryB := blockWithAssign(g, "x")
	errB := blockWithAssign(g, "y")
	joinB := blockWithAssign(g, "w")
	if entryB == nil || errB == nil || joinB == nil {
		t.Fatal("missing expected blocks")
	}
	const fact = "alloc"
	in := g.forwardMay(func(b *cfgBlock, in factSet) factSet {
		out := in.clone()
		if b == entryB {
			out[fact] = true
		}
		return out
	}, func(e cfgEdge, k factKey) bool {
		// Drop the fact on the error-handling (condition-true) edge.
		return !(k == factKey(fact) && e.kind == edgeCondTrue)
	})
	if in[errB][fact] {
		t.Error("edge filter should keep the fact out of the error branch")
	}
	if !in[joinB][fact] {
		t.Error("fact should survive along the fall-through edge to the join")
	}
}

// TestCFGLoopBackEdge checks that facts flow around a loop back edge to
// reach atoms earlier in the loop body on the second iteration.
func TestCFGLoopBackEdge(t *testing.T) {
	t.Parallel()
	body := parseBody(t, `
func f(n int) int {
	t := 0
	for i := 0; i < n; i++ {
		b := i
		_ = b
	}
	w := t
	return w
}`)
	g := buildCFG(body, nil)
	loopB := blockWithAssign(g, "b")
	if loopB == nil {
		t.Fatal("missing loop body block")
	}
	const fact = "loop-born"
	in := g.forwardMay(func(b *cfgBlock, in factSet) factSet {
		out := in.clone()
		if b == loopB {
			out[fact] = true
		}
		return out
	}, nil)
	// The fact generated in the loop body must flow around the back edge
	// and be live at the loop body's own entry on re-iteration.
	if !in[loopB][fact] {
		t.Error("fact should reach the loop body entry via the back edge")
	}
	if !in[g.exit][fact] {
		t.Error("fact should escape the loop to the exit")
	}
}

// TestCFGPanicSealsPath checks that a diverging call ends its path: a
// fact live before panic never reaches the exit through that path.
func TestCFGPanicSealsPath(t *testing.T) {
	t.Parallel()
	body := parseBody(t, `
func f(a bool) int {
	x := 0
	if a {
		y := 1
		_ = y
		panic("boom")
	}
	w := 3
	return w
}`)
	isPanic := func(call *ast.CallExpr) bool {
		id, ok := call.Fun.(*ast.Ident)
		return ok && id.Name == "panic"
	}
	g := buildCFG(body, isPanic)
	panicB := blockWithAssign(g, "y")
	if panicB == nil {
		t.Fatal("missing panic block")
	}
	const fact = "doomed"
	in := g.forwardMay(func(b *cfgBlock, in factSet) factSet {
		out := in.clone()
		if b == panicB {
			out[fact] = true
		}
		return out
	}, nil)
	if in[g.exit][fact] {
		t.Error("fact generated on a panicking path must not reach the exit")
	}
}
