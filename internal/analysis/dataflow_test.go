package analysis

import (
	"go/ast"
	"sort"
	"strings"
	"testing"
)

// The dataflow framework is exercised with a miniature dominating-guard
// lattice defined entirely inside this test: facts are sets of plain
// identifier names known true (the test sources guard on bare bools),
// joined by intersection (must-analysis), killed by assignment, and
// established on the true edge of an if condition — the same shape
// obsgate instantiates with real guard expressions. Probe points are
// calls named probe*(); the test solves the CFG and replays facts to
// each probe.

type guardSet map[string]bool

func (g guardSet) clone() guardSet {
	out := make(guardSet, len(g))
	for k := range g {
		out[k] = true
	}
	return out
}

func guardJoin(a, b guardSet) guardSet {
	out := guardSet{}
	for k := range a {
		if b[k] {
			out[k] = true
		}
	}
	return out
}

func guardEqual(a, b guardSet) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// guardsIn decomposes cond into the identifier guards established when
// it evaluates to val: `a` (val), `!a` (!val), `a && b` (both when val).
func guardsIn(cond ast.Expr, val bool) []string {
	switch c := cond.(type) {
	case *ast.Ident:
		if val {
			return []string{c.Name}
		}
	case *ast.ParenExpr:
		return guardsIn(c.X, val)
	case *ast.UnaryExpr:
		if c.Op.String() == "!" {
			return guardsIn(c.X, !val)
		}
	case *ast.BinaryExpr:
		switch c.Op.String() {
		case "&&":
			if val {
				return append(guardsIn(c.X, true), guardsIn(c.Y, true)...)
			}
		case "||":
			if !val {
				return append(guardsIn(c.X, false), guardsIn(c.Y, false)...)
			}
		}
	}
	return nil
}

func guardTransfer(n ast.Node, f guardSet) guardSet {
	as, ok := n.(*ast.AssignStmt)
	if !ok {
		return f
	}
	out := f
	copied := false
	for _, lhs := range as.Lhs {
		if id, ok := lhs.(*ast.Ident); ok && out[id.Name] {
			if !copied {
				out = out.clone()
				copied = true
			}
			delete(out, id.Name)
		}
	}
	return out
}

func guardBranch(cond ast.Expr, takenTrue bool, f guardSet) guardSet {
	add := guardsIn(cond, takenTrue)
	if len(add) == 0 {
		return f
	}
	out := f.clone()
	for _, g := range add {
		out[g] = true
	}
	return out
}

// probeFacts builds the CFG for src, solves the guard lattice, and
// returns the sorted guard names holding at each probe*() call.
func probeFacts(t *testing.T, src string) map[string][]string {
	t.Helper()
	cfg := buildCFG(parseBody(t, src))
	in, reached := solve(cfg, flow[guardSet]{
		boundary: guardSet{},
		join:     guardJoin,
		equal:    guardEqual,
		transfer: guardTransfer,
		branch:   guardBranch,
	})
	out := make(map[string][]string)
	record := func(n ast.Node, f guardSet) {
		ast.Inspect(n, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok || !strings.HasPrefix(id.Name, "probe") {
				return true
			}
			var names []string
			for g := range f {
				names = append(names, g)
			}
			sort.Strings(names)
			out[id.Name] = names
			return true
		})
	}
	for _, blk := range cfg.Blocks {
		if !reached[blk.Index] {
			continue
		}
		f := in[blk.Index]
		for _, n := range blk.Nodes {
			record(n, f)
			f = guardTransfer(n, f)
		}
	}
	return out
}

func wantGuards(t *testing.T, got map[string][]string, probe string, want ...string) {
	t.Helper()
	g, ok := got[probe]
	if !ok {
		t.Fatalf("%s: no fact recorded (probe unreached?)", probe)
	}
	if len(want) == 0 {
		want = []string{}
	}
	if len(g) != len(want) {
		t.Fatalf("%s: guards = %v, want %v", probe, g, want)
	}
	for i := range g {
		if g[i] != want[i] {
			t.Fatalf("%s: guards = %v, want %v", probe, g, want)
		}
	}
}

func TestDataflowThenBranchHasGuard(t *testing.T) {
	got := probeFacts(t, `
if a {
	probe1()
} else {
	probe2()
}
probe3()`)
	wantGuards(t, got, "probe1", "a")
	wantGuards(t, got, "probe2")
	wantGuards(t, got, "probe3")
}

func TestDataflowEarlyReturnEstablishesGuard(t *testing.T) {
	got := probeFacts(t, `
if !a {
	return
}
probe1()`)
	wantGuards(t, got, "probe1", "a")
}

func TestDataflowPanicEstablishesGuard(t *testing.T) {
	got := probeFacts(t, `
if !a {
	panic("x")
}
probe1()`)
	wantGuards(t, got, "probe1", "a")
}

func TestDataflowAndChain(t *testing.T) {
	got := probeFacts(t, `
if a && b {
	probe1()
}
probe2()`)
	wantGuards(t, got, "probe1", "a", "b")
	wantGuards(t, got, "probe2")
}

func TestDataflowOrFalseBranch(t *testing.T) {
	got := probeFacts(t, `
if a || b {
	probe1()
	return
}
probe2()`)
	// On the true edge of a||b neither conjunct is individually known...
	wantGuards(t, got, "probe1")
	// ...and the false edge knows both are false — which establishes
	// nothing in a positive-guard lattice.
	wantGuards(t, got, "probe2")
}

func TestDataflowNestedGuards(t *testing.T) {
	got := probeFacts(t, `
if a {
	if b {
		probe1()
	}
	probe2()
}
probe3()`)
	wantGuards(t, got, "probe1", "a", "b")
	wantGuards(t, got, "probe2", "a")
	wantGuards(t, got, "probe3")
}

func TestDataflowAssignmentKillsGuard(t *testing.T) {
	got := probeFacts(t, `
if a {
	probe1()
	a = false
	probe2()
}`)
	wantGuards(t, got, "probe1", "a")
	wantGuards(t, got, "probe2")
}

func TestDataflowLoopBodyKill(t *testing.T) {
	// The guard holds on the first iteration but the body kills it; the
	// fixpoint must drain it from the probe (back edge joins the killed
	// fact into the loop head).
	got := probeFacts(t, `
if a {
	for i := 0; i < n; i++ {
		probe1()
		a = false
	}
}`)
	wantGuards(t, got, "probe1")
}

func TestDataflowLoopPreservesUnkilledGuard(t *testing.T) {
	got := probeFacts(t, `
if a {
	for i := 0; i < n; i++ {
		probe1()
	}
	probe2()
}`)
	wantGuards(t, got, "probe1", "a")
	wantGuards(t, got, "probe2", "a")
}

func TestDataflowLoopConditionGuardsBody(t *testing.T) {
	got := probeFacts(t, `
for a {
	probe1()
}
probe2()`)
	wantGuards(t, got, "probe1", "a")
	wantGuards(t, got, "probe2")
}

func TestDataflowSwitchJoinsConservatively(t *testing.T) {
	got := probeFacts(t, `
if a {
	switch x {
	case 1:
		probe1()
	case 2:
		b = true
	}
	probe2()
}`)
	// The enclosing guard survives the switch; the case-2 assignment to
	// an unrelated variable does not disturb it.
	wantGuards(t, got, "probe1", "a")
	wantGuards(t, got, "probe2", "a")
}

func TestDataflowUnreachedBlocksSkipped(t *testing.T) {
	got := probeFacts(t, `
return
probe1()`)
	if _, ok := got["probe1"]; ok {
		t.Fatalf("probe1 is dead code but was recorded with a fact")
	}
}
