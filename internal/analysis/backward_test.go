package analysis

import (
	"go/ast"
	"sort"
	"strings"
	"testing"
)

// The backward framework is exercised with a miniature anticipated-
// consumption lattice defined entirely inside this test: facts are sets
// of plain identifier names certain to be passed to consume() on every
// path from here to a function exit — the same must/intersection shape
// poollife instantiates with real release calls. Assigning to a name
// kills it (the later consume applies to the new binding, not the one
// live above the assignment), and a bare-identifier branch condition is
// established on its false edge (the backward analogue of the
// conditional-acquire `if ok` refinement). Probe points are calls named
// probe*(); the test solves the CFG backward and replays facts in
// reverse to each probe.

type consumeSet map[string]bool

func (c consumeSet) clone() consumeSet {
	out := make(consumeSet, len(c))
	for k := range c {
		out[k] = true
	}
	return out
}

func consumeJoin(a, b consumeSet) consumeSet {
	out := consumeSet{}
	for k := range a {
		if b[k] {
			out[k] = true
		}
	}
	return out
}

func consumeEqual(a, b consumeSet) bool {
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

// consumeTransfer maps the fact holding after n to the fact holding
// before it: identifiers assigned by n are killed, identifiers passed
// to consume() within n are established.
func consumeTransfer(n ast.Node, f consumeSet) consumeSet {
	var kills, adds []string
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					kills = append(kills, id.Name)
				}
			}
		case *ast.CallExpr:
			if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "consume" {
				for _, arg := range x.Args {
					if a, ok := arg.(*ast.Ident); ok {
						adds = append(adds, a.Name)
					}
				}
			}
		}
		return true
	})
	if len(kills) == 0 && len(adds) == 0 {
		return f
	}
	out := f.clone()
	for _, k := range kills {
		delete(out, k)
	}
	for _, a := range adds {
		out[a] = true
	}
	return out
}

// consumeBranch establishes a bare-identifier condition on its own
// false edge: when `ok` is false the value it witnessed was never
// produced, so no consumption is owed — the refinement that lets
// `if ok { consume(ok) }` satisfy the must-analysis on both edges.
func consumeBranch(cond ast.Expr, takenTrue bool, f consumeSet) consumeSet {
	id, ok := cond.(*ast.Ident)
	if !ok || takenTrue {
		return f
	}
	out := f.clone()
	out[id.Name] = true
	return out
}

// probeBackwardFacts builds the CFG for src, solves the consumption
// lattice backward, and returns the sorted names anticipated at each
// probe*() call. Probes in blocks the backward solver reports unreached
// (dead code, or bodies with no path to an exit) are absent from the
// result.
func probeBackwardFacts(t *testing.T, src string) map[string][]string {
	t.Helper()
	cfg := buildCFG(parseBody(t, src))
	out, reached := solve(cfg, flow[consumeSet]{
		backward: true,
		boundary: consumeSet{},
		join:     consumeJoin,
		equal:    consumeEqual,
		transfer: consumeTransfer,
		branch:   consumeBranch,
	})
	got := make(map[string][]string)
	record := func(n ast.Node, f consumeSet) {
		ast.Inspect(n, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok || !strings.HasPrefix(id.Name, "probe") {
				return true
			}
			names := []string{}
			for k := range f {
				names = append(names, k)
			}
			sort.Strings(names)
			got[id.Name] = names
			return true
		})
	}
	for _, blk := range cfg.Blocks {
		if !reached[blk.Index] {
			continue
		}
		f := out[blk.Index]
		for i := len(blk.Nodes) - 1; i >= 0; i-- {
			record(blk.Nodes[i], f)
			f = consumeTransfer(blk.Nodes[i], f)
		}
	}
	return got
}

func wantAnticipated(t *testing.T, got map[string][]string, probe string, want ...string) {
	t.Helper()
	g, ok := got[probe]
	if !ok {
		t.Fatalf("%s: no fact recorded (probe unreached?)", probe)
	}
	if len(want) == 0 {
		want = []string{}
	}
	if len(g) != len(want) {
		t.Fatalf("%s: anticipated = %v, want %v", probe, g, want)
	}
	for i := range g {
		if g[i] != want[i] {
			t.Fatalf("%s: anticipated = %v, want %v", probe, g, want)
		}
	}
}

func TestBackwardStraightLine(t *testing.T) {
	got := probeBackwardFacts(t, `
probe1()
consume(x)
probe2()`)
	wantAnticipated(t, got, "probe1", "x")
	wantAnticipated(t, got, "probe2")
}

func TestBackwardOneArmConsumesIsNotMust(t *testing.T) {
	got := probeBackwardFacts(t, `
probe1()
if a {
	consume(x)
}
probe2()`)
	// The false edge of a skips the consume, so the intersection at the
	// branch drops x.
	wantAnticipated(t, got, "probe1")
	wantAnticipated(t, got, "probe2")
}

func TestBackwardBothArmsConsume(t *testing.T) {
	got := probeBackwardFacts(t, `
probe1()
if a {
	consume(x)
} else {
	consume(x)
	consume(y)
}`)
	// x is consumed on both arms; y only on one.
	wantAnticipated(t, got, "probe1", "x")
}

func TestBackwardSeparateExits(t *testing.T) {
	got := probeBackwardFacts(t, `
if a {
	probe1()
	consume(x)
	return
}
probe2()
consume(x)`)
	wantAnticipated(t, got, "probe1", "x")
	wantAnticipated(t, got, "probe2", "x")
}

func TestBackwardEarlyReturnDropsAnticipation(t *testing.T) {
	got := probeBackwardFacts(t, `
probe1()
if a {
	return
}
probe2()
consume(x)`)
	// The return arm exits without consuming, so above the branch x is
	// not guaranteed; below it (false edge) it is.
	wantAnticipated(t, got, "probe1")
	wantAnticipated(t, got, "probe2", "x")
}

func TestBackwardPanicIsAnExit(t *testing.T) {
	got := probeBackwardFacts(t, `
probe1()
if a {
	panic("x")
}
probe2()
consume(x)`)
	wantAnticipated(t, got, "probe1")
	wantAnticipated(t, got, "probe2", "x")
}

func TestBackwardBranchRefinement(t *testing.T) {
	got := probeBackwardFacts(t, `
probe1()
if ok {
	consume(ok)
}
probe2()`)
	// The true edge consumes ok; the false edge establishes it by
	// refinement (nothing was produced). Both edges agree, so the
	// intersection keeps it — unlike the unrefined shape above.
	wantAnticipated(t, got, "probe1", "ok")
	wantAnticipated(t, got, "probe2")
}

func TestBackwardAssignmentKills(t *testing.T) {
	got := probeBackwardFacts(t, `
probe1()
x = 0
probe2()
consume(x)`)
	// The consume below the assignment applies to the new binding.
	wantAnticipated(t, got, "probe1")
	wantAnticipated(t, got, "probe2", "x")
}

func TestBackwardLoopMayNotRun(t *testing.T) {
	got := probeBackwardFacts(t, `
probe1()
for i := 0; i < n; i++ {
	consume(x)
}`)
	// Zero iterations exits without consuming.
	wantAnticipated(t, got, "probe1")
}

func TestBackwardLoopBodyReachesConsumeAfter(t *testing.T) {
	got := probeBackwardFacts(t, `
probe1()
for i := 0; i < n; i++ {
	probe2()
}
consume(x)`)
	// Every path out of the loop — including every trip around the back
	// edge — reaches the consume, so the fixpoint keeps x anticipated
	// inside the body too.
	wantAnticipated(t, got, "probe1", "x")
	wantAnticipated(t, got, "probe2", "x")
}

func TestBackwardLoopBodyKillDrainsFact(t *testing.T) {
	got := probeBackwardFacts(t, `
probe1()
for a > 0 {
	x = 0
}
consume(x)`)
	// Any path through the body rebinds x before the consume; the back
	// edge joins the killed fact into the loop head and the fixpoint
	// drains it from above the loop.
	wantAnticipated(t, got, "probe1")
}

func TestBackwardSwitchJoinsConservatively(t *testing.T) {
	got := probeBackwardFacts(t, `
probe1()
switch x {
case 1:
	consume(a)
case 2:
}
consume(b)
probe2()`)
	// a is consumed on only one case arm; b on every path.
	wantAnticipated(t, got, "probe1", "b")
	wantAnticipated(t, got, "probe2")
}

func TestBackwardDeadCodeSkipped(t *testing.T) {
	got := probeBackwardFacts(t, `
return
probe1()`)
	if _, ok := got["probe1"]; ok {
		t.Fatalf("probe1 is dead code but was recorded with a fact")
	}
}

func TestBackwardInfiniteLoopBodyUnreached(t *testing.T) {
	got := probeBackwardFacts(t, `
for {
	probe1()
}`)
	// The body has no path to any exit: backward-unreached, no fact.
	if _, ok := got["probe1"]; ok {
		t.Fatalf("probe1 cannot reach an exit but was recorded with a fact")
	}
}
