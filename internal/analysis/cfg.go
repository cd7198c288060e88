package analysis

import (
	"go/ast"
	"go/token"
)

// Per-function control-flow graphs over go/ast, for the dataflow
// analyses (dataflow.go) that obsgate and poollife build on, forward and
// backward. The builder lowers one function body into basic blocks;
// expressions are not decomposed — each block carries the statements
// (and loop/branch conditions) it executes, in order, and the dataflow
// layer walks inside them as needed. condAtoms, at the end of the file,
// is the one walker that turns a two-way branch's condition into the
// leaf facts its true or false edge establishes.
//
// The shape is deliberately minimal: just enough structure to answer
// "which guard conditions dominate this statement?" precisely for the
// control flow the repo actually writes (if/else chains with && and !,
// early returns, loops) while degrading conservatively — never
// unsoundly — for the rest (switch, select, goto simply join their
// facts).

// Block is one basic block.
type Block struct {
	// Index is the block's position in CFG.Blocks; Blocks[0] is entry.
	Index int
	// Nodes are the statements and expressions executed by the block, in
	// order. The condition of a two-way branch appears as the last node.
	Nodes []ast.Node
	// Cond, when non-nil, is the boolean condition of a two-way branch
	// terminating the block: Succs[0] is the true edge, Succs[1] the
	// false edge. It is set for if statements and for loops with a
	// condition; multi-way branches (switch, select) and condition-less
	// loops leave it nil, so dataflow refines no facts along their edges.
	Cond  ast.Expr
	Succs []*Block
}

// CFG is the control-flow graph of one function body.
type CFG struct {
	Blocks []*Block // Blocks[0] is the entry block
}

// cfgBuilder carries the under-construction graph plus the break/
// continue/goto resolution state.
type cfgBuilder struct {
	cfg *CFG
	// cur is the block statements are currently appended to; nil when
	// the current point is unreachable (after return/panic/branch).
	cur *Block
	// breaks/continues are stacks of enclosing targets, innermost last;
	// entries with a label are findable by labeled break/continue.
	breaks    []branchTarget
	continues []branchTarget
	// gotos maps a label name to the block a goto jumps to. Forward
	// gotos create the block early; the LabeledStmt lowering enters it.
	gotos map[string]*Block
}

type branchTarget struct {
	label string
	block *Block
}

// buildCFG lowers body into basic blocks. It never returns nil: an empty
// body yields a single empty entry block.
func buildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{cfg: &CFG{}, gotos: make(map[string]*Block)}
	b.cur = b.newBlock()
	b.stmtList(body.List)
	return b.cfg
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

// jump links the current block to dst and ends it; a nil cur (already
// unreachable) is a no-op.
func (b *cfgBuilder) jump(dst *Block) {
	if b.cur != nil {
		b.cur.Succs = append(b.cur.Succs, dst)
	}
	b.cur = nil
}

// append records a node in the current block, reviving an unreachable
// point into a fresh (predecessor-less) block so later statements are
// still analyzed — with no incoming facts, exactly like dead code after
// a return.
func (b *cfgBuilder) append(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

// terminatesPanic reports whether s is a call to the builtin panic — the
// only expression statement that ends a block.
func terminatesPanic(s ast.Stmt) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// stmt lowers one statement. label is the name of the enclosing
// LabeledStmt when s is its direct child ("" otherwise); loops and
// switches register it for labeled break/continue.
func (b *cfgBuilder) stmt(s ast.Stmt, label string) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		b.ifStmt(s)

	case *ast.ForStmt:
		b.forStmt(s, label)

	case *ast.RangeStmt:
		b.rangeStmt(s, label)

	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		b.multiway(s, label)

	case *ast.LabeledStmt:
		name := s.Label.Name
		target, ok := b.gotos[name]
		if !ok {
			target = b.newBlock()
			b.gotos[name] = target
		}
		b.jump(target)
		b.cur = target
		b.stmt(s.Stmt, name)

	case *ast.BranchStmt:
		b.branch(s)

	case *ast.ReturnStmt:
		b.append(s)
		b.cur = nil

	case *ast.ExprStmt:
		b.append(s)
		if terminatesPanic(s) {
			b.cur = nil
		}

	default:
		// DeclStmt, AssignStmt, IncDecStmt, SendStmt, GoStmt, DeferStmt,
		// EmptyStmt — straight-line.
		b.append(s)
	}
}

func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.append(s.Init)
	}
	b.append(s.Cond)
	head := b.cur
	head.Cond = s.Cond
	b.cur = nil

	thenB := b.newBlock()
	head.Succs = append(head.Succs, thenB)
	b.cur = thenB
	b.stmt(s.Body, "")
	afterThen := b.cur
	b.cur = nil

	var afterElse *Block
	if s.Else != nil {
		elseB := b.newBlock()
		head.Succs = append(head.Succs, elseB)
		b.cur = elseB
		b.stmt(s.Else, "")
		afterElse = b.cur
		b.cur = nil
	}

	join := b.newBlock()
	if s.Else == nil {
		head.Succs = append(head.Succs, join) // false edge
	} else if afterElse != nil {
		afterElse.Succs = append(afterElse.Succs, join)
	}
	if afterThen != nil {
		afterThen.Succs = append(afterThen.Succs, join)
	}
	b.cur = join
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt, label string) {
	if s.Init != nil {
		b.append(s.Init)
	}
	head := b.newBlock()
	b.jump(head)
	join := b.newBlock()
	post := head
	if s.Post != nil {
		post = b.newBlock()
		post.Nodes = append(post.Nodes, s.Post)
		post.Succs = append(post.Succs, head)
	}
	body := b.newBlock()
	head.Succs = append(head.Succs, body)
	if s.Cond != nil {
		head.Nodes = append(head.Nodes, s.Cond)
		head.Cond = s.Cond
		head.Succs = append(head.Succs, join) // false edge
	}
	b.pushLoop(label, join, post)
	b.cur = body
	b.stmt(s.Body, "")
	b.jump(post)
	b.popLoop(label)
	b.cur = join
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt, label string) {
	b.append(s.X)
	head := b.newBlock()
	b.jump(head)
	// The per-iteration key/value assignment executes in the head so its
	// kills apply on every pass. The whole RangeStmt node stands in for
	// it; dataflow transfer functions treat it as an assignment.
	if s.Key != nil || s.Value != nil {
		head.Nodes = append(head.Nodes, s)
	}
	join := b.newBlock()
	body := b.newBlock()
	head.Succs = append(head.Succs, body, join) // no Cond: no refinement
	b.pushLoop(label, join, head)
	b.cur = body
	b.stmt(s.Body, "")
	b.jump(head)
	b.popLoop(label)
	b.cur = join
}

// multiway lowers switch/type-switch/select: one head block fanning out
// to every clause, all clauses joining after. No per-clause condition
// refinement (Cond stays nil) — conservative for the guard analysis.
func (b *cfgBuilder) multiway(s ast.Stmt, label string) {
	var clauses []ast.Stmt
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			b.append(s.Init)
		}
		if s.Tag != nil {
			b.append(s.Tag)
		}
		clauses = s.Body.List
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.append(s.Init)
		}
		b.append(s.Assign)
		clauses = s.Body.List
	case *ast.SelectStmt:
		clauses = s.Body.List
	}
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	head := b.cur
	b.cur = nil
	join := b.newBlock()

	b.breaks = append(b.breaks, branchTarget{"", join})
	if label != "" {
		b.breaks = append(b.breaks, branchTarget{label, join})
	}
	hasDefault := false
	var prevFall *Block // fallthrough source awaiting the next clause body
	for _, c := range clauses {
		blk := b.newBlock()
		head.Succs = append(head.Succs, blk)
		if prevFall != nil {
			prevFall.Succs = append(prevFall.Succs, blk)
			prevFall = nil
		}
		var bodyList []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			for _, e := range c.List {
				blk.Nodes = append(blk.Nodes, e)
			}
			bodyList = c.Body
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
			} else {
				blk.Nodes = append(blk.Nodes, c.Comm)
			}
			bodyList = c.Body
		}
		b.cur = blk
		fellThrough := false
		for _, st := range bodyList {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok.String() == "fallthrough" {
				fellThrough = true
				break
			}
			b.stmt(st, "")
		}
		if fellThrough {
			prevFall = b.cur
			b.cur = nil
		} else {
			b.jump(join)
		}
	}
	if prevFall != nil { // fallthrough from the last clause: malformed, stay safe
		prevFall.Succs = append(prevFall.Succs, join)
	}
	if !hasDefault {
		head.Succs = append(head.Succs, join)
	}
	if label != "" {
		b.breaks = b.breaks[:len(b.breaks)-1]
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = join
}

func (b *cfgBuilder) pushLoop(label string, brk, cont *Block) {
	b.breaks = append(b.breaks, branchTarget{"", brk})
	b.continues = append(b.continues, branchTarget{"", cont})
	if label != "" {
		b.breaks = append(b.breaks, branchTarget{label, brk})
		b.continues = append(b.continues, branchTarget{label, cont})
	}
}

func (b *cfgBuilder) popLoop(label string) {
	n := 1
	if label != "" {
		n = 2
	}
	b.breaks = b.breaks[:len(b.breaks)-n]
	b.continues = b.continues[:len(b.continues)-n]
}

// branch resolves break/continue/goto.
func (b *cfgBuilder) branch(s *ast.BranchStmt) {
	switch s.Tok.String() {
	case "break":
		if t := b.target(b.breaks, s.Label); t != nil {
			b.jump(t)
			return
		}
		b.cur = nil
	case "continue":
		if t := b.target(b.continues, s.Label); t != nil {
			b.jump(t)
			return
		}
		b.cur = nil
	case "goto":
		if s.Label != nil {
			target, ok := b.gotos[s.Label.Name]
			if !ok {
				target = b.newBlock()
				b.gotos[s.Label.Name] = target
			}
			b.jump(target)
			return
		}
		b.cur = nil
	default: // fallthrough is handled by multiway; reaching here is malformed
		b.cur = nil
	}
}

// target finds the innermost matching break/continue target: the last
// entry with the requested label, or the last anonymous entry for an
// unlabeled branch.
func (b *cfgBuilder) target(stack []branchTarget, label *ast.Ident) *Block {
	want := ""
	if label != nil {
		want = label.Name
	}
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i].label == want {
			return stack[i].block
		}
	}
	return nil
}

// condAtoms decomposes a branch condition into the facts its value
// establishes: knowing cond evaluates to val, it walks parentheses, !,
// && on the true edge and || on the false edge, and calls atom(e, v) for
// every leaf e known to evaluate to v. Each dataflow client supplies
// only its own leaf test.
func condAtoms(cond ast.Expr, val bool, atom func(e ast.Expr, v bool)) {
	switch c := cond.(type) {
	case *ast.ParenExpr:
		condAtoms(c.X, val, atom)
		return
	case *ast.UnaryExpr:
		if c.Op == token.NOT {
			condAtoms(c.X, !val, atom)
			return
		}
	case *ast.BinaryExpr:
		if c.Op == token.LAND && val || c.Op == token.LOR && !val {
			condAtoms(c.X, val, atom)
			condAtoms(c.Y, val, atom)
			return
		}
	}
	atom(cond, val)
}
