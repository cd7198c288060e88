package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"strings"
)

// Poollife proves pooled-object lifecycles: every value acquired from a
// pool surface — a pool.FreeList slot, a fiber.Pool frame or packet, a
// cab receive descriptor, an ip header/span buffer, a sim.Timer — must
// reach a release (Put/Release/Stop) or an explicit ownership transfer
// on every control-flow path. The zero-alloc fast path (see
// EXPERIMENTS.md) rests entirely on these hand-managed lifecycles: one
// missed Release on an error branch silently degrades the pool back to
// allocation and erodes exactly the per-event wins the zero-alloc tests
// and nectar-perf's allocs/msg record, without failing a single
// functional test.
//
// Three checks per function, over the CFGs of cfg.go:
//
//   - Leak: a backward must-settle analysis (dataflow.go's solve run
//     backward) computes, at every acquire site, whether the value is
//     settled — released or ownership-transferred — on every path to a
//     return or panic. Transfers are: storing into a field/index/
//     global, returning the value, capturing it in a closure, sending
//     it on a channel, placing it in a composite literal, appending it
//     to a slice, or passing it to a callee that either carries
//     //nectar:takes-ownership <param> <reason> or is
//     outside the analyzed program (dynamic calls, interface methods,
//     externals). A call to an in-program function NOT so annotated is
//     a borrow: the obligation stays with the caller. The conditional
//     acquire `v, ok := fl.Get()` is refined on branch edges: where ok
//     is known false, no value was produced and nothing is owed.
//   - Double-release: a forward state machine (solve) flags a release
//     on a path that has already released the same value, including an
//     explicit release shadowed by a pending `defer v.Release()`.
//   - Use-after-release: any read of a value on a path that has already
//     released it.
//
// A discarded acquire (`fl.Get()` as a bare statement, or a result
// bound to _) leaks immediately and is flagged at the call, except for
// fire-and-forget surfaces (Kernel.At/After: an unbound timer is
// kernel-owned until it fires).
//
// //nectar:takes-ownership also seeds the obligation inside the callee:
// the annotated parameter must itself be settled on every path.
// //nectar:leak-ok <reason> waives a leak or discard finding with the
// same placement rules as allow-walltime (own line, next line, or the
// whole function via the doc comment); double-releases and
// use-after-release are never waivable. Both directives are inventoried
// by nectar-vet -waivers.
var Poollife = &Analyzer{
	Name: "poollife",
	Doc: "every value acquired from a pool surface (FreeList.Get, fiber.Pool frames/packets, cab receive descriptors, " +
		"ip header/span buffers, sim timers) must reach a release or an explicit ownership transfer on every path; " +
		"flags leaks, discarded acquires, double-releases, and use-after-release. " +
		"//nectar:takes-ownership <param> <reason> transfers the obligation to a callee; " +
		"//nectar:leak-ok <reason> waives a deliberate sink. Also checks that takes-ownership names a parameter.",
	Run: runPoollife,
}

// plAcquireSpec describes one pool surface that creates a release
// obligation for its result.
type plAcquireSpec struct {
	label string // what the value is, for diagnostics
	// okResult marks the (T, bool) shape: the obligation exists only on
	// edges where the second result is true.
	okResult bool
	// mayDiscard sanctions ignoring the result entirely (fire-and-forget
	// timers are kernel-owned until they fire); a result that IS bound
	// still owes a release.
	mayDiscard bool
}

var plAcquires = map[string]plAcquireSpec{
	"(*nectar/internal/pool.FreeList[T]).Get":    {label: "pooled slot", okResult: true},
	"(*nectar/internal/hw/fiber.Pool).GetFrame":  {label: "pooled frame"},
	"(*nectar/internal/hw/fiber.Pool).GetPacket": {label: "pooled packet"},
	"(*nectar/internal/hw/cab.CAB).getDesc":      {label: "receive descriptor"},
	"(*nectar/internal/proto/ip.Layer).getHdr":   {label: "pooled header buffer"},
	"(*nectar/internal/proto/ip.Layer).getSpans": {label: "pooled span slice"},
	"(*nectar/internal/sim.Kernel).At":           {label: "timer", mayDiscard: true},
	"(*nectar/internal/sim.Kernel).After":        {label: "timer", mayDiscard: true},
}

// plReleaseSpec describes one release surface. The released value is the
// receiver unless arg is set (FreeList.Put releases its argument).
type plReleaseSpec struct {
	name string // short name for diagnostics (Put, Release, Stop)
	arg  bool
}

var plReleases = map[string]plReleaseSpec{
	"(*nectar/internal/pool.FreeList[T]).Put":    {name: "Put", arg: true},
	"(*nectar/internal/hw/fiber.Packet).Release": {name: "Release"},
	"(*nectar/internal/hw/cab.RxDesc).Release":   {name: "Release"},
	"(nectar/internal/sim.Timer).Stop":           {name: "Stop"},
}

func runPoollife(pass *Pass) (any, error) {
	if !IsDeterministicPkg(canonicalPkgPath(pass.PkgPath)) {
		return nil, nil
	}
	prog := programFor(pass)
	prog.ensureGraph()
	for _, f := range pass.Files {
		test := pass.IsTestFile(f.Pos())
		pc := &plChecker{
			pass:   pass,
			prog:   prog,
			sup:    newSuppressor(pass, f, DirLeakOK),
			events: make(map[ast.Node]*plEvents),
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			owned := pc.ownedParams(fd)
			if !test && fd.Body != nil {
				pc.checkFunc(fd.Body, owned)
			}
		}
	}
	return nil, nil
}

// ownedParams returns the parameters (or receiver) fd's
// //nectar:takes-ownership directives name, reporting a name that is
// none of them: such a directive silently transfers nothing.
func (pc *plChecker) ownedParams(fd *ast.FuncDecl) []*ast.Ident {
	var owned []*ast.Ident
	for _, d := range declDirectives(pc.pass.Fset, fd) {
		fields := strings.Fields(d.arg)
		if d.verb != DirTakesOwner || len(fields) < 2 {
			continue // the directive pass reports the malformed form
		}
		if id := paramIdent(fd, fields[0]); id != nil {
			owned = append(owned, id)
		} else {
			pc.pass.Reportf(d.pos, "//nectar:takes-ownership names %q, which is not a parameter or receiver of %s", fields[0], fd.Name.Name)
		}
	}
	return owned
}

// paramIdent finds the parameter or receiver of fd with the given name.
func paramIdent(fd *ast.FuncDecl, name string) *ast.Ident {
	var lists []*ast.FieldList
	if fd.Recv != nil {
		lists = append(lists, fd.Recv)
	}
	if fd.Type.Params != nil {
		lists = append(lists, fd.Type.Params)
	}
	for _, fl := range lists {
		for _, field := range fl.List {
			for _, id := range field.Names {
				if id.Name == name {
					return id
				}
			}
		}
	}
	return nil
}

// plAcquire is one obligation-creating site in a function body.
type plAcquire struct {
	obj  types.Object // the bound variable
	ok   types.Object // the ok bool of a conditional acquire, or nil
	pos  token.Pos
	spec plAcquireSpec
}

// plRelease is one release call inside a node.
type plRelease struct {
	obj  types.Object
	pos  token.Pos
	name string
}

// plEvents is the lifecycle-relevant content of one CFG node, extracted
// once and shared by the backward and forward transfer functions.
type plEvents struct {
	kills    []types.Object    // plain-ident rebinds: facts below don't apply above
	moves    [][2]types.Object // {dst, src} ident-to-ident assignments
	settles  []types.Object    // unconditional ownership transfers
	releases []plRelease
	acquires []*plAcquire
	deferred bool         // node is a DeferStmt: releases are pending, not done
	uses     []*ast.Ident // every other identifier occurrence
}

// plChecker runs poollife over one file's functions.
type plChecker struct {
	pass   *Pass
	prog   *Program
	sup    *suppressor
	events map[ast.Node]*plEvents

	// okToRes maps the ok bool of a conditional acquire to the acquired
	// value, for branch-edge refinement. Rebuilt per function.
	okToRes map[types.Object]types.Object
}

// checkFunc analyzes one function or closure body. owned lists the
// //nectar:takes-ownership parameters whose obligation is seeded at
// entry. Nested closures are analyzed independently (their captures
// settle the enclosing function's obligations at the capture point).
func (pc *plChecker) checkFunc(body *ast.BlockStmt, owned []*ast.Ident) {
	for _, lit := range directLits(body) {
		pc.checkFunc(lit.Body, nil)
	}

	cfg := buildCFG(body)
	pc.okToRes = make(map[types.Object]types.Object)
	acquires := make(map[ast.Node][]*plAcquire)
	nAcquires := 0
	for _, blk := range cfg.Blocks {
		for _, n := range blk.Nodes {
			for _, acq := range pc.nodeEvents(n).acquires {
				acquires[n] = append(acquires[n], acq)
				nAcquires++
				if acq.ok != nil {
					pc.okToRes[acq.ok] = acq.obj
				}
			}
		}
	}

	var seeds []types.Object
	seedPos := make(map[types.Object]token.Pos)
	for _, id := range owned {
		if obj := pc.pass.TypesInfo.Defs[id]; obj != nil {
			seeds = append(seeds, obj)
			seedPos[obj] = id.Pos()
		}
	}
	if nAcquires == 0 && len(seeds) == 0 {
		return
	}

	pc.checkLeaks(cfg, acquires, seeds, seedPos)
	pc.checkReleases(cfg, seeds)
}

// checkLeaks runs the backward must-settle analysis and reports every
// obligation that can reach a function exit unsettled.
func (pc *plChecker) checkLeaks(cfg *CFG, acquires map[ast.Node][]*plAcquire, seeds []types.Object, seedPos map[types.Object]token.Pos) {
	out, reached := solve(cfg, flow[plSet]{
		backward: true,
		boundary: plSet{},
		join:     plSetJoin,
		equal:    maps.Equal[plSet, plSet],
		transfer: pc.settleTransfer,
		branch:   pc.settleBranch,
	})
	entry := cfg.Blocks[0]
	var entryFact plSet
	for _, blk := range cfg.Blocks {
		if !reached[blk.Index] {
			// No path from here to any exit (infinite event loop): a held
			// value is never abandoned, so nothing leaks.
			continue
		}
		f := out[blk.Index]
		for i := len(blk.Nodes) - 1; i >= 0; i-- {
			n := blk.Nodes[i]
			for _, acq := range acquires[n] {
				if !f[acq.obj] && !pc.sup.allows(pc.pass, acq.pos) {
					pc.pass.Reportf(acq.pos,
						"%s %s is not released on every path: a return or panic is reachable while it is still held; release it, transfer ownership, or waive with //nectar:leak-ok <reason>",
						acq.spec.label, acq.obj.Name())
				}
			}
			f = pc.settleTransfer(n, f)
		}
		if blk == entry {
			entryFact = f
		}
	}
	if reached[entry.Index] {
		for _, obj := range seeds {
			if !entryFact[obj] && !pc.sup.allows(pc.pass, seedPos[obj]) {
				pc.pass.Reportf(seedPos[obj],
					"//nectar:takes-ownership parameter %s is not released on every path: a return or panic is reachable while it is still held",
					obj.Name())
			}
		}
	}
}

// Forward lifecycle states, ordered so join can take the maximum: a
// path that released (or escaped) dominates one that merely holds — a
// later release or use is a bug on at least that path.
const (
	plHeld     uint8 = 1
	plDeferred uint8 = 2
	plReleased uint8 = 3
	plEscaped  uint8 = 4
)

// checkReleases runs the forward state machine and reports
// double-releases and uses after release.
func (pc *plChecker) checkReleases(cfg *CFG, seeds []types.Object) {
	entry := plState{}
	for _, obj := range seeds {
		entry[obj] = plHeld
	}
	in, reached := solve(cfg, flow[plState]{
		boundary: entry,
		join:     plStateJoin,
		equal:    maps.Equal[plState, plState],
		transfer: func(n ast.Node, f plState) plState { return pc.stateTransfer(n, f, false) },
		branch:   pc.stateBranch,
	})
	for _, blk := range cfg.Blocks {
		if !reached[blk.Index] {
			continue
		}
		f := in[blk.Index]
		for _, n := range blk.Nodes {
			f = pc.stateTransfer(n, f, true)
		}
	}
}

// stateTransfer applies one node to the forward lifecycle states. The
// solving passes run with report=false; the final replay reports.
func (pc *plChecker) stateTransfer(n ast.Node, f plState, report bool) plState {
	ev := pc.nodeEvents(n)
	if len(ev.kills) == 0 && len(ev.moves) == 0 && len(ev.settles) == 0 &&
		len(ev.releases) == 0 && len(ev.acquires) == 0 && !(report && len(ev.uses) > 0) {
		return f
	}
	out := maps.Clone(f)
	if report {
		for _, id := range ev.uses {
			obj := identVar(pc.pass.TypesInfo, id)
			if obj != nil && out[obj] == plReleased {
				pc.pass.Reportf(id.Pos(), "use of %s after release: a path to this point has already released it", obj.Name())
			}
		}
	}
	for _, rel := range ev.releases {
		switch out[rel.obj] {
		case plReleased:
			if report {
				pc.pass.Reportf(rel.pos, "double release of %s: a path to this %s has already released it", rel.obj.Name(), rel.name)
			}
		case plDeferred:
			if report {
				pc.pass.Reportf(rel.pos, "double release of %s: a deferred release of it is already pending", rel.obj.Name())
			}
		case plEscaped:
			// Ownership moved elsewhere; a later release through the
			// local is the new owner's business, not provably double.
		default:
			if ev.deferred {
				out[rel.obj] = plDeferred
			} else {
				out[rel.obj] = plReleased
			}
		}
	}
	// Kills before moves: for c := b the old binding of c dies and the
	// new one inherits b's state.
	for _, k := range ev.kills {
		delete(out, k)
	}
	for _, mv := range ev.moves {
		if st, ok := out[mv[1]]; ok {
			out[mv[0]] = st
		}
	}
	for _, s := range ev.settles {
		if out[s] == plHeld {
			out[s] = plEscaped
		}
	}
	for _, acq := range ev.acquires {
		out[acq.obj] = plHeld
	}
	return out
}

// stateBranch drops obligations on edges where a conditional acquire's
// ok is known false: no value was produced.
func (pc *plChecker) stateBranch(cond ast.Expr, takenTrue bool, f plState) plState {
	objs := falseCondVars(pc.pass.TypesInfo, cond, takenTrue)
	out := f
	copied := false
	for _, o := range objs {
		res, ok := pc.okToRes[o]
		if !ok {
			continue
		}
		if _, tracked := out[res]; !tracked {
			continue
		}
		if !copied {
			out = maps.Clone(out)
			copied = true
		}
		delete(out, res)
	}
	return out
}

// settleTransfer is the backward transfer: given the settled set after
// n, return the set before it.
func (pc *plChecker) settleTransfer(n ast.Node, f plSet) plSet {
	ev := pc.nodeEvents(n)
	if len(ev.kills) == 0 && len(ev.moves) == 0 && len(ev.settles) == 0 && len(ev.releases) == 0 {
		return f
	}
	out := maps.Clone(f)
	// A move w = v first: v inherits whatever fate w has below.
	for _, mv := range ev.moves {
		if f[mv[0]] {
			out[mv[1]] = true
		}
	}
	for _, k := range ev.kills {
		delete(out, k)
	}
	for _, rel := range ev.releases {
		out[rel.obj] = true
	}
	for _, s := range ev.settles {
		out[s] = true
	}
	return out
}

// settleBranch settles conditionally acquired values on edges where
// their ok is known false.
func (pc *plChecker) settleBranch(cond ast.Expr, takenTrue bool, f plSet) plSet {
	objs := falseCondVars(pc.pass.TypesInfo, cond, takenTrue)
	out := f
	copied := false
	for _, o := range objs {
		if res, ok := pc.okToRes[o]; ok {
			if !copied {
				out = maps.Clone(f)
				copied = true
			}
			out[res] = true
		}
	}
	return out
}

// falseCondVars returns the variables known false when cond evaluates
// to val: poollife's leaf test for condAtoms is a bare identifier
// evaluating to false (`ok` on the false edge, `!ok` on the true edge).
func falseCondVars(info *types.Info, cond ast.Expr, val bool) []types.Object {
	var objs []types.Object
	condAtoms(cond, val, func(e ast.Expr, v bool) {
		if id, ok := e.(*ast.Ident); ok && !v {
			if obj := identVar(info, id); obj != nil {
				objs = append(objs, obj)
			}
		}
	})
	return objs
}

// nodeEvents extracts (and caches) the lifecycle events of one CFG
// node. Discarded-acquire diagnostics are reported here, exactly once
// per node (the cache guarantees single extraction).
func (pc *plChecker) nodeEvents(n ast.Node) *plEvents {
	if ev, ok := pc.events[n]; ok {
		return ev
	}
	ev := &plEvents{}
	pc.events[n] = ev
	info := pc.pass.TypesInfo

	// The RangeStmt node stands in for the per-iteration key/value
	// assignment only; its X and body are separate CFG nodes.
	if rs, ok := n.(*ast.RangeStmt); ok {
		for _, e := range []ast.Expr{rs.Key, rs.Value} {
			if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
				if obj := identVar(info, id); obj != nil {
					ev.kills = append(ev.kills, obj)
				}
			}
		}
		return ev
	}
	if _, ok := n.(*ast.DeferStmt); ok {
		ev.deferred = true
	}

	// stmtCall is the call that IS the statement: the one position
	// where an un-bound acquire is a discard rather than a value
	// flowing into an enclosing expression.
	var stmtCall *ast.CallExpr
	if es, ok := n.(*ast.ExprStmt); ok {
		x := es.X
		for {
			p, ok := x.(*ast.ParenExpr)
			if !ok {
				break
			}
			x = p.X
		}
		stmtCall, _ = x.(*ast.CallExpr)
	}

	// skipIdents marks identifiers with a dedicated role (assignment
	// targets, release targets, move sources) so the generic use scan
	// ignores them. handled marks acquire calls consumed by an
	// enclosing assignment or declaration.
	skipIdents := make(map[*ast.Ident]bool)
	handled := make(map[*ast.CallExpr]bool)

	var walk func(x ast.Node)

	settleRoot := func(e ast.Expr) {
		if obj := identVar(info, rootIdent(e)); obj != nil {
			ev.settles = append(ev.settles, obj)
		}
	}

	// acquireCall records an acquire bound by lhs (nil for none), or
	// reports a discard for an un-bound non-discardable surface.
	acquireCall := func(call *ast.CallExpr, spec plAcquireSpec, lhs []ast.Expr) {
		acq := &plAcquire{pos: call.Pos(), spec: spec}
		if len(lhs) > 0 {
			if id, ok := plainIdent(lhs[0]); ok && id.Name != "_" {
				acq.obj = identVar(info, id)
			}
		}
		if acq.obj == nil {
			if !spec.mayDiscard && !pc.sup.allows(pc.pass, call.Pos()) {
				fn := calleeFunc(info, call)
				pc.pass.Reportf(call.Pos(),
					"the %s returned by %s is discarded and leaks; bind and release it, transfer ownership, or waive with //nectar:leak-ok <reason>",
					spec.label, displayName(fn))
			}
			return
		}
		if spec.okResult && len(lhs) > 1 {
			if id, ok := plainIdent(lhs[1]); ok && id.Name != "_" {
				acq.ok = identVar(info, id)
			}
		}
		ev.acquires = append(ev.acquires, acq)
	}

	// callEvents classifies one call: release target, acquire surface,
	// ownership transfer to an annotated callee, conservative escape to
	// a callee the analysis cannot see, or builtin.
	callEvents := func(call *ast.CallExpr) {
		walkRest := func() {
			for _, a := range call.Args {
				walk(a)
			}
			walk(call.Fun)
		}
		fn := calleeFunc(info, call)
		if fn != nil {
			id := funcID(fn)
			if spec, ok := plReleases[id]; ok {
				var target ast.Expr
				if spec.arg {
					if len(call.Args) > 0 {
						target = call.Args[0]
					}
				} else if sel, ok := unparenIndex(call.Fun).(*ast.SelectorExpr); ok {
					target = sel.X
				}
				if tid, ok := plainIdent(target); ok {
					if obj := identVar(info, tid); obj != nil {
						skipIdents[tid] = true
						ev.releases = append(ev.releases, plRelease{obj: obj, pos: call.Pos(), name: spec.name})
					}
				}
				walkRest()
				return
			}
			if spec, ok := plAcquires[id]; ok {
				if !handled[call] && call == stmtCall {
					acquireCall(call, spec, nil)
				}
				// Embedded in a larger expression: the value flows
				// straight into the consumer; no local obligation.
				walkRest()
				return
			}
			if node := pc.prog.fns[id]; node != nil {
				// In-program callee: arguments at //nectar:takes-ownership
				// positions (and an annotated receiver) transfer;
				// everything else is a borrow — the obligation stays here.
				if len(node.Takes) > 0 && node.Decl != nil {
					taken := make(map[string]bool, len(node.Takes))
					for _, p := range node.Takes {
						taken[p] = true
					}
					for i, name := range paramNames(node.Decl) {
						if taken[name] && i < len(call.Args) {
							settleRoot(call.Args[i])
						}
					}
					if node.Decl.Recv != nil && len(node.Decl.Recv.List) > 0 {
						for _, rid := range node.Decl.Recv.List[0].Names {
							if taken[rid.Name] {
								if sel, ok := unparenIndex(call.Fun).(*ast.SelectorExpr); ok {
									settleRoot(sel.X)
								}
							}
						}
					}
				}
				walkRest()
				return
			}
			// Declared function outside the program (stdlib, interface
			// method, another package under analysistest): conservatively
			// an ownership transfer for every argument and the receiver.
			pc.escapeArgs(call, ev)
			walkRest()
			return
		}
		if id, ok := unparenIndex(call.Fun).(*ast.Ident); ok {
			if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
				switch id.Name {
				case "append":
					for _, a := range call.Args[1:] {
						settleRoot(a)
					}
				case "panic":
					for _, a := range call.Args {
						settleRoot(a)
					}
				}
				for _, a := range call.Args {
					walk(a)
				}
				return
			}
		}
		// Dynamic call (func value, method value): the callee is
		// invisible, so every argument escapes.
		pc.escapeArgs(call, ev)
		walkRest()
	}

	// assignEvents handles one assignment: plain-ident targets kill
	// (and pair into moves with plain-ident sources); stores through
	// any other lvalue settle the stored value, except self-updates
	// (pkt.Route = pkt.Route[1:]), which neither transfer nor kill.
	assignEvents := func(as *ast.AssignStmt) {
		paired := len(as.Lhs) == len(as.Rhs)
		for i, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				skipIdents[id] = true
				if id.Name == "_" {
					continue
				}
				obj := identVar(info, id)
				if obj == nil {
					continue
				}
				ev.kills = append(ev.kills, obj)
				if paired {
					if src, ok := as.Rhs[i].(*ast.Ident); ok {
						if sobj := identVar(info, src); sobj != nil {
							ev.moves = append(ev.moves, [2]types.Object{obj, sobj})
							skipIdents[src] = true
						}
					}
				}
				continue
			}
			lroot := identVar(info, rootIdent(lhs))
			rhs := as.Rhs
			if paired {
				rhs = as.Rhs[i : i+1]
			}
			for _, r := range rhs {
				if obj := identVar(info, rootIdent(r)); obj != nil && obj != lroot {
					ev.settles = append(ev.settles, obj)
				}
			}
		}
		if len(as.Rhs) == 1 {
			if call, ok := as.Rhs[0].(*ast.CallExpr); ok {
				if spec, ok := plAcquires[calleeID(info, call)]; ok {
					handled[call] = true
					acquireCall(call, spec, as.Lhs)
				}
			}
		}
		for _, r := range as.Rhs {
			walk(r)
		}
		for _, l := range as.Lhs {
			walk(l)
		}
	}

	walk = func(x ast.Node) {
		ast.Inspect(x, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.FuncLit:
				// Closure capture settles enclosing objects at the
				// creation point; the body is analyzed separately.
				ast.Inspect(x.Body, func(y ast.Node) bool {
					id, ok := y.(*ast.Ident)
					if !ok {
						return true
					}
					obj := identVar(info, id)
					if obj != nil && (obj.Pos() < x.Pos() || obj.Pos() >= x.End()) {
						ev.settles = append(ev.settles, obj)
					}
					return true
				})
				return false
			case *ast.AssignStmt:
				assignEvents(x)
				return false
			case *ast.ValueSpec:
				// var v = expr: same kill/acquire shape as :=.
				for _, id := range x.Names {
					skipIdents[id] = true
					if id.Name == "_" {
						continue
					}
					if obj := identVar(info, id); obj != nil {
						ev.kills = append(ev.kills, obj)
					}
				}
				if len(x.Values) == 1 {
					if call, ok := x.Values[0].(*ast.CallExpr); ok {
						if spec, ok := plAcquires[calleeID(info, call)]; ok {
							handled[call] = true
							lhs := make([]ast.Expr, len(x.Names))
							for i, id := range x.Names {
								lhs[i] = id
							}
							acquireCall(call, spec, lhs)
						}
					}
				}
				for _, v := range x.Values {
					walk(v)
				}
				return false
			case *ast.CallExpr:
				callEvents(x)
				return false
			case *ast.SendStmt:
				if obj := identVar(info, rootIdent(x.Value)); obj != nil {
					ev.settles = append(ev.settles, obj)
				}
			case *ast.ReturnStmt:
				for _, r := range x.Results {
					settleRoot(r)
				}
			case *ast.CompositeLit:
				for _, elt := range x.Elts {
					e := elt
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						e = kv.Value
					}
					settleRoot(e)
				}
			case *ast.Ident:
				if !skipIdents[x] && identVar(info, x) != nil {
					ev.uses = append(ev.uses, x)
				}
			}
			return true
		})
	}
	walk(n)
	return ev
}

// escapeArgs settles every argument (and a plain method-call receiver)
// of a call whose callee the analysis cannot see.
func (pc *plChecker) escapeArgs(call *ast.CallExpr, ev *plEvents) {
	info := pc.pass.TypesInfo
	for _, a := range call.Args {
		if obj := identVar(info, rootIdent(a)); obj != nil {
			ev.settles = append(ev.settles, obj)
		}
	}
	if sel, ok := unparenIndex(call.Fun).(*ast.SelectorExpr); ok {
		if id, ok := plainIdent(sel.X); ok {
			if obj := identVar(info, id); obj != nil {
				ev.settles = append(ev.settles, obj)
			}
		}
	}
}

// --- fact lattices ---

// plSet is the backward must-settle fact: the set of objects released
// or ownership-transferred on every path from here to an exit.
type plSet map[types.Object]bool

func plSetJoin(a, b plSet) plSet {
	out := plSet{}
	for k := range a {
		if b[k] {
			out[k] = true
		}
	}
	return out
}

// plState is the forward lifecycle fact: per-object state, joined by
// maximum (a release on any path dominates a hold).
type plState map[types.Object]uint8

func plStateJoin(a, b plState) plState {
	out := maps.Clone(a)
	for k, v := range b {
		if v > out[k] {
			out[k] = v
		}
	}
	return out
}

// --- small helpers ---

// directLits returns the function literals directly contained in body,
// not descending into them (each literal finds its own children).
func directLits(body *ast.BlockStmt) []*ast.FuncLit {
	var lits []*ast.FuncLit
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			lits = append(lits, lit)
			return false
		}
		return true
	})
	return lits
}

// paramNames returns fd's parameter names in declaration order,
// expanding grouped parameters (a, b int).
func paramNames(fd *ast.FuncDecl) []string {
	if fd.Type.Params == nil {
		return nil
	}
	var names []string
	for _, field := range fd.Type.Params.List {
		if len(field.Names) == 0 {
			names = append(names, "")
			continue
		}
		for _, id := range field.Names {
			names = append(names, id.Name)
		}
	}
	return names
}

// plainIdent unwraps parentheses around a bare identifier.
func plainIdent(e ast.Expr) (*ast.Ident, bool) {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x, true
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil, false
		}
	}
}

// identVar resolves an identifier to the local/parameter variable it
// names, nil for anything else (fields, package names, functions) and
// for a nil id.
func identVar(info *types.Info, id *ast.Ident) types.Object {
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	if v, ok := obj.(*types.Var); ok && !v.IsField() {
		return v
	}
	return nil
}
