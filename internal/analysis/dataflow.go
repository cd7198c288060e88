package analysis

import (
	"go/ast"
)

// A generic dataflow framework over the CFGs of cfg.go, run in either
// direction. One instantiation per lattice: obsgate runs a forward
// combined dominating-guard (must, intersection-join) and taint (may,
// union-join) analysis; poollife runs a backward must-settle analysis
// (intersection-join: a resource is settled only if every path to an
// exit releases or transfers it) and a forward lifecycle state machine.
// The framework itself is agnostic — it just runs the classic worklist
// algorithm to a fixpoint.
//
// Facts propagate block-start to block-start in flow order: going
// forward, solve returns the IN fact of every block and a client replays
// transfer across the block's nodes in order; going backward, it
// returns the OUT fact (the fact holding just after the block's last
// node) and a client replays transfer across the nodes in reverse.
// branch refines the fact along the true/false edge of a two-way branch
// (if conditions, for conditions): forward, the fact leaving the branch
// block; backward, the fact a successor passes back to the branch block
// — the predecessor's OUT is the join of its successors' IN facts, each
// refined by the condition value that selects that edge. Edges of
// multi-way branches carry the unrefined fact.
//
// Only forward-reachable blocks take part, so dead code after a return
// never feeds facts into its textual predecessors. Going backward, the
// seeds are the live blocks with no successors (return, panic, falling
// off the function end); a live block with no path to any exit (a body
// trapped in an infinite loop) is backward-unreached. Unreached blocks
// keep F's zero value, and clients skip them when replaying.

// flow defines one dataflow problem over fact type F. F must be treated
// as immutable by all three functions: transfer and branch return fresh
// values (or the input unchanged), never mutate in place — the solver
// aliases facts freely.
type flow[F any] struct {
	// backward runs the problem exit-to-entry.
	backward bool
	// boundary is the fact at function entry going forward, and at every
	// function exit (return/panic/fall-off) going backward.
	boundary F
	// join merges facts where control-flow paths meet (in flow order).
	// It must be commutative, associative, and monotone (repeated joins
	// converge).
	join func(F, F) F
	// equal reports whether two facts are indistinguishable; the solver
	// stops re-queuing a block when its fact stops changing.
	equal func(F, F) bool
	// transfer applies the effect of one block node: given the fact
	// before n in flow order, it returns the fact after it.
	transfer func(n ast.Node, f F) F
	// branch, when non-nil, refines the fact along the true (takenTrue)
	// or false edge of a block ending in condition cond.
	branch func(cond ast.Expr, takenTrue bool, f F) F
}

// flowEdge carries facts along one CFG edge in flow order, into block
// to. The edge is br.Succs[slot], so branch refinement can tell the true
// edge from the false edge.
type flowEdge struct {
	to   int
	br   *Block
	slot int
}

// solve runs the worklist algorithm and returns the fact at the start of
// every block in flow order, indexed by Block.Index, and which blocks
// the flow reached.
func solve[F any](cfg *CFG, fl flow[F]) (facts []F, reached []bool) {
	n := len(cfg.Blocks)
	live := make([]bool, n)
	live[0] = true
	stack := []int{0}
	for len(stack) > 0 {
		bi := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, succ := range cfg.Blocks[bi].Succs {
			if !live[succ.Index] {
				live[succ.Index] = true
				stack = append(stack, succ.Index)
			}
		}
	}
	edges := make([][]flowEdge, n)
	for _, blk := range cfg.Blocks {
		if !live[blk.Index] {
			continue
		}
		for i, succ := range blk.Succs {
			if fl.backward {
				edges[succ.Index] = append(edges[succ.Index], flowEdge{blk.Index, blk, i})
			} else {
				edges[blk.Index] = append(edges[blk.Index], flowEdge{succ.Index, blk, i})
			}
		}
	}

	facts = make([]F, n)
	reached = make([]bool, n)
	var work []int
	inWork := make([]bool, n)
	seed := func(bi int) {
		facts[bi] = fl.boundary
		reached[bi] = true
		work = append(work, bi)
		inWork[bi] = true
	}
	if !fl.backward {
		seed(0)
	}
	for _, blk := range cfg.Blocks {
		if fl.backward && live[blk.Index] && len(blk.Succs) == 0 {
			seed(blk.Index)
		}
	}

	for len(work) > 0 {
		bi := work[0]
		work = work[1:]
		inWork[bi] = false
		nodes := cfg.Blocks[bi].Nodes
		f := facts[bi]
		for i := range nodes {
			if fl.backward {
				i = len(nodes) - 1 - i
			}
			f = fl.transfer(nodes[i], f)
		}
		for _, e := range edges[bi] {
			ef := f
			if e.br.Cond != nil && len(e.br.Succs) == 2 && fl.branch != nil {
				ef = fl.branch(e.br.Cond, e.slot == 0, f)
			}
			if !reached[e.to] {
				facts[e.to] = ef
				reached[e.to] = true
			} else {
				merged := fl.join(facts[e.to], ef)
				if fl.equal(merged, facts[e.to]) {
					continue
				}
				facts[e.to] = merged
			}
			if !inWork[e.to] {
				inWork[e.to] = true
				work = append(work, e.to)
			}
		}
	}
	return facts, reached
}
