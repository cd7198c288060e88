package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Whole-program context for the interprocedural analyzers (hotpath,
// shardsafe, costmodel, poollife), modeled on the x/tools go/analysis
// fact-propagation idea: facts are attached to program objects
// (functions, types, fields) when their defining package is analyzed,
// and consumed when any other package is. Because this driver loads the
// module in one types universe (load.go), the "export/import" step
// collapses into shared maps on a Program.
//
// The call graph covers:
//
//   - static calls: f(...), pkg.F(...), recv.M(...) with a concrete
//     receiver — resolved to the defining declaration (generic
//     instantiations resolve to their origin declaration);
//   - method sets: recv.M(...) with an interface-typed receiver — one
//     edge per declared method in the program whose receiver type
//     implements the interface;
//   - function values: func literals (one node per literal, linked to
//     the enclosing function) and named functions/method values passed
//     as call arguments or launched by go statements — the shape in
//     which callbacks reach the approved spawn surfaces (Kernel.At/
//     After, Domain.SendSized, Kernel.Go, the parallel sweep pool).
//
// Calls through func-typed variables and fields are not edges: their
// targets are whatever values flowed there, which the value edges above
// already attribute to the function that created them. (This is exactly
// the split that keeps Kernel.step — which invokes every scheduled
// callback through the event arena — from dragging the entire simulation
// into every hot path.)

// EdgeKind classifies a call-graph edge.
type EdgeKind uint8

const (
	// EdgeCall is a direct static call.
	EdgeCall EdgeKind = iota
	// EdgeIface is a call through an interface method, resolved to one
	// implementing method.
	EdgeIface
	// EdgeValue is a named function or method value passed as a call
	// argument or launched by a go statement; the callee runs under the
	// caller's context even if invocation is deferred.
	EdgeValue
	// EdgeClosure links a function to a func literal it contains.
	EdgeClosure
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeCall:
		return "calls"
	case EdgeIface:
		return "calls (via interface)"
	case EdgeValue:
		return "passes"
	case EdgeClosure:
		return "creates"
	}
	return "edge"
}

// Edge is one outgoing call-graph edge.
type Edge struct {
	Pos    token.Pos
	Callee *FuncNode
	Kind   EdgeKind
}

// FuncNode is one function (declared or literal) in the call graph.
type FuncNode struct {
	// ID is the stable identity: types.Func.FullName for declarations,
	// "<parent>$<n>" for the n-th func literal inside parent.
	ID   string
	Pkg  *Package
	Decl *ast.FuncDecl // nil for literals
	Lit  *ast.FuncLit  // nil for declarations
	// Root is the enclosing top-level declaration for literals (itself
	// for declarations); capture analysis and reporting anchor to it.
	Root  *FuncNode
	Edges []Edge

	// Facts from //nectar: directives on the declaration.
	Hot    bool // //nectar:hotpath
	Exempt bool // //nectar:hotpath-exempt <reason>
	// Boundary marks //nectar:shard-boundary <reason> functions: audited
	// cross-domain surfaces that shardsafe skips.
	Boundary bool
	// FreeHop marks //nectar:free-hop <reason> functions: audited pure
	// forwarding steps whose latency is accounted elsewhere; costmodel
	// accepts uncharged paths through them.
	FreeHop bool
	// Takes lists the parameter (or receiver) names this function
	// assumes the release obligation for, one per
	// //nectar:takes-ownership <param> <reason> directive; poollife ends
	// the caller's obligation for arguments passed at these positions
	// and seeds the obligation inside the callee.
	Takes []string

	display string
}

// Body returns the function body (nil for body-less declarations).
func (n *FuncNode) Body() *ast.BlockStmt {
	if n.Lit != nil {
		return n.Lit.Body
	}
	return n.Decl.Body
}

// DisplayName is a human-oriented short name used in call chains:
// "sim.Micros", "(*sim.Kernel).Stop", "(*mailbox.Mailbox).pop$1".
func (n *FuncNode) DisplayName() string { return n.display }

// Program is the whole-program view shared by the interprocedural
// analyzers: every loaded package plus the call graph and fact tables
// built from them, all lazily constructed and cached.
type Program struct {
	Packages []*Package

	built bool
	fns   map[string]*FuncNode
	nodes []*FuncNode            // deterministic (package, position) order
	meth  map[string][]*FuncNode // declared method name -> candidates

	hotDone  bool
	hotDiags map[string][]Diagnostic // pkg path -> hotpath findings

	costDone  bool
	costDiags map[string][]Diagnostic // pkg path -> costmodel findings

	shardOnce  bool
	shardFacts *shardFactTable

	deadDiags map[string][]Diagnostic // pkg path -> deadstate's exported findings
}

// NewProgram creates a Program over pkgs. Graphs and facts are built on
// first use and cached; drivers are sequential, so no locking is needed.
func NewProgram(pkgs []*Package) *Program {
	return &Program{Packages: pkgs}
}

// funcID returns the stable identity of a declared function, resolving
// generic instantiations to their origin declaration.
func funcID(obj *types.Func) string { return obj.Origin().FullName() }

// calleeFunc resolves a call's static callee, nil for dynamic calls
// and builtins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparenIndex(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// calleeID returns the funcID of call's static callee, "" for dynamic
// calls and builtins: the key the analyzers' tables of special calls
// (pool surfaces, emission surfaces, sim.Panicf) are looked up by.
func calleeID(info *types.Info, call *ast.CallExpr) string {
	if fn := calleeFunc(info, call); fn != nil {
		return funcID(fn)
	}
	return ""
}

// displayName shortens obj.FullName by replacing the import path with the
// package name ("nectar/internal/sim.Micros" -> "sim.Micros").
func displayName(obj *types.Func) string {
	full := funcID(obj)
	if p := obj.Pkg(); p != nil && p.Path() != p.Name() {
		full = strings.ReplaceAll(full, p.Path()+".", p.Name()+".")
	}
	return full
}

// ensureGraph builds the function index and call edges once.
func (prog *Program) ensureGraph() {
	if prog.built {
		return
	}
	prog.built = true
	prog.fns = make(map[string]*FuncNode)
	prog.meth = make(map[string][]*FuncNode)

	// Pass 1: index declared functions and their directive facts.
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				if !ok {
					continue // type error; degrade quietly
				}
				n := &FuncNode{
					ID:      funcID(obj),
					Pkg:     pkg,
					Decl:    fd,
					display: displayName(obj),
				}
				n.Root = n
				for _, d := range declDirectives(pkg.Fset, fd) {
					switch {
					case d.verb == DirHotpath:
						n.Hot = true
					case d.verb == DirHotpathExempt && d.arg != "":
						n.Exempt = true
					case d.verb == DirShardBoundary && d.arg != "":
						n.Boundary = true
					case d.verb == DirFreeHop && d.arg != "":
						n.FreeHop = true
					case d.verb == DirTakesOwner:
						if fields := strings.Fields(d.arg); len(fields) >= 2 {
							n.Takes = append(n.Takes, fields[0])
						}
					}
				}
				prog.fns[n.ID] = n
				prog.nodes = append(prog.nodes, n)
				if fd.Recv != nil {
					prog.meth[obj.Name()] = append(prog.meth[obj.Name()], n)
				}
			}
		}
	}
	sort.Slice(prog.nodes, func(i, j int) bool { return prog.nodes[i].ID < prog.nodes[j].ID })

	// Pass 2: scan bodies for edges (creates literal nodes on the way).
	for _, n := range prog.nodes {
		if n.Decl != nil && n.Decl.Body != nil {
			prog.scanBody(n)
		}
	}
}

// scanBody collects n's outgoing edges. Nested func literals become
// their own nodes (linked by EdgeClosure) and are scanned recursively;
// their bodies are excluded from n's own scan.
func (prog *Program) scanBody(n *FuncNode) {
	litCount := 0
	var walk func(x ast.Node) bool
	walk = func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			litCount++
			child := &FuncNode{
				ID:      fmt.Sprintf("%s$%d", n.ID, litCount),
				Pkg:     n.Pkg,
				Lit:     x,
				Root:    n.Root,
				display: fmt.Sprintf("%s$%d", n.display, litCount),
			}
			prog.fns[child.ID] = child
			n.Edges = append(n.Edges, Edge{Pos: x.Pos(), Callee: child, Kind: EdgeClosure})
			prog.scanBody(child)
			return false // the child's scan owns this subtree
		case *ast.CallExpr:
			prog.edgesForCall(n, x)
		case *ast.AssignStmt:
			// A named function or method value stored in a variable or
			// struct field escapes into later (possibly deferred)
			// invocation, exactly like one passed as a call argument.
			prog.valueEdges(n, x.Rhs)
		case *ast.ValueSpec:
			prog.valueEdges(n, x.Values)
		case *ast.CompositeLit:
			// Function values seeded through composite literals
			// (handler tables, struct construction).
			for _, el := range x.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				prog.valueEdges(n, []ast.Expr{el})
			}
		}
		return true
	}
	if body := n.Body(); body != nil {
		ast.Inspect(body, walk)
	}
}

// valueEdges adds EdgeValue edges for named function/method values among
// exprs (assignment right-hand sides, composite-literal elements).
func (prog *Program) valueEdges(n *FuncNode, exprs []ast.Expr) {
	for _, e := range exprs {
		if obj := funcValueOf(n.Pkg.TypesInfo, e); obj != nil {
			prog.addEdge(n, e.Pos(), obj, EdgeValue)
		}
	}
}

// unparenIndex strips parentheses and generic instantiation indices from
// a call's Fun expression.
func unparenIndex(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		default:
			return e
		}
	}
}

// edgesForCall adds the edges arising from one call expression: the
// callee (static or interface dispatch) and any named function values
// among the arguments.
func (prog *Program) edgesForCall(n *FuncNode, call *ast.CallExpr) {
	info := n.Pkg.TypesInfo
	switch fun := unparenIndex(call.Fun).(type) {
	case *ast.Ident:
		if obj, ok := info.Uses[fun].(*types.Func); ok {
			prog.addEdge(n, call.Pos(), obj, EdgeCall)
		}
	case *ast.SelectorExpr:
		if s, ok := info.Selections[fun]; ok && s.Kind() == types.MethodVal {
			if obj, ok := s.Obj().(*types.Func); ok {
				if types.IsInterface(s.Recv()) {
					prog.ifaceEdges(n, call.Pos(), s.Recv(), obj.Name())
				} else {
					prog.addEdge(n, call.Pos(), obj, EdgeCall)
				}
			}
		} else if obj, ok := info.Uses[fun.Sel].(*types.Func); ok {
			prog.addEdge(n, call.Pos(), obj, EdgeCall) // pkg-qualified
		}
	}
	for _, arg := range call.Args {
		if obj := funcValueOf(info, arg); obj != nil {
			prog.addEdge(n, arg.Pos(), obj, EdgeValue)
		}
	}
}

// funcValueOf resolves arg to a named function or method value being
// passed (not called), or nil.
func funcValueOf(info *types.Info, arg ast.Expr) *types.Func {
	switch a := unparenIndex(arg).(type) {
	case *ast.Ident:
		if obj, ok := info.Uses[a].(*types.Func); ok {
			return obj
		}
	case *ast.SelectorExpr:
		if s, ok := info.Selections[a]; ok && s.Kind() == types.MethodVal {
			if obj, ok := s.Obj().(*types.Func); ok && !types.IsInterface(s.Recv()) {
				return obj
			}
			return nil
		}
		if obj, ok := info.Uses[a.Sel].(*types.Func); ok {
			return obj
		}
	}
	return nil
}

// addEdge links n to the declaration of obj, if it is in the program.
// External callees (the standard library) have no syntax here; the
// intraprocedural rules applied to each reachable body cover the known
// allocating externals (the fmt formatters) by name.
func (prog *Program) addEdge(n *FuncNode, pos token.Pos, obj *types.Func, kind EdgeKind) {
	callee, ok := prog.fns[funcID(obj)]
	if !ok {
		return
	}
	n.Edges = append(n.Edges, Edge{Pos: pos, Callee: callee, Kind: kind})
}

// ifaceEdges resolves a call through interface type recv to every
// declared method in the program implementing it.
func (prog *Program) ifaceEdges(n *FuncNode, pos token.Pos, recv types.Type, name string) {
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok {
		return
	}
	for _, cand := range prog.meth[name] {
		obj, ok := cand.Pkg.TypesInfo.Defs[cand.Decl.Name].(*types.Func)
		if !ok {
			continue
		}
		sig, ok := obj.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			continue
		}
		rt := sig.Recv().Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		named, ok := rt.(*types.Named)
		if !ok || named.TypeParams().Len() > 0 {
			continue // generic receivers: skip (cannot instantiate here)
		}
		if types.Implements(types.NewPointer(named), iface) {
			n.Edges = append(n.Edges, Edge{Pos: pos, Callee: cand, Kind: EdgeIface})
		}
	}
}

// --- hotpath fact propagation ---

// ensureHot runs the hotpath analysis once: it audits the body of every
// //nectar:hotpath root, then walks the graph breadth-first from the
// roots, pruning at //nectar:hotpath-exempt, applies the same rules to
// every reached un-annotated function, and records diagnostics per
// defining package (reached functions with the discovery chain attached).
func (prog *Program) ensureHot() {
	if prog.hotDone {
		return
	}
	prog.hotDone = true
	prog.ensureGraph()
	prog.hotDiags = make(map[string][]Diagnostic)

	parent := make(map[*FuncNode]*FuncNode)
	visited := make(map[*FuncNode]bool)
	var queue []*FuncNode
	for _, n := range prog.nodes { // prog.nodes is ID-sorted: deterministic
		if !n.Hot {
			continue
		}
		prog.checkHot(n, nil)
		if !n.Exempt {
			visited[n] = true
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range cur.Edges {
			c := e.Callee
			if visited[c] || c.Exempt {
				continue
			}
			visited[c] = true
			parent[c] = cur
			queue = append(queue, c)
		}
	}

	// Deterministic order over reached nodes: declarations first in ID
	// order, then their literals (IDs share the declaration prefix).
	var reached []*FuncNode
	for n := range visited {
		reached = append(reached, n)
	}
	sort.Slice(reached, func(i, j int) bool { return reached[i].ID < reached[j].ID })
	for _, n := range reached {
		if n.Hot {
			continue // annotated: audited as a root above
		}
		// Literal nodes whose root declaration is itself reached (or
		// annotated) are covered by that declaration's body check.
		if n.Lit != nil && (visited[n.Root] || n.Root.Hot) {
			continue
		}
		prog.checkHot(n, chainOf(parent, n))
	}
}

// chainOf reconstructs the discovery chain root -> ... -> n.
func chainOf(parent map[*FuncNode]*FuncNode, n *FuncNode) []string {
	var rev []string
	for cur := n; cur != nil; cur = parent[cur] {
		rev = append(rev, cur.DisplayName())
	}
	chain := make([]string, len(rev))
	for i, s := range rev {
		chain[len(rev)-1-i] = s
	}
	return chain
}

// checkHot applies the hotpath purity rules to n and records its
// diagnostics: prefixed with the function's name for an annotated root
// (nil chain), or as a chain-bearing sentence for a reached function.
func (prog *Program) checkHot(n *FuncNode, chain []string) {
	path := canonicalPkgPath(n.Pkg.PkgPath)
	chainText := strings.Join(chain, " -> ")
	hc := &hotChecker{
		info: n.Pkg.TypesInfo,
		report: func(pos token.Pos, format string, args ...any) {
			msg := fmt.Sprintf(format, args...)
			d := Diagnostic{Pos: pos, Message: "hotpath " + n.Decl.Name.Name + ": " + msg}
			if chain != nil {
				d.Message = fmt.Sprintf("%s is reachable from //nectar:hotpath root %s (%s) but %s; "+
					"make it allocation-free or annotate it //nectar:hotpath-exempt <reason>",
					n.DisplayName(), chain[0], chainText, msg)
				d.Chain = chain
			}
			prog.hotDiags[path] = append(prog.hotDiags[path], d)
		},
	}
	var recv *ast.FieldList
	var typ *ast.FuncType
	if n.Decl != nil {
		recv, typ = n.Decl.Recv, n.Decl.Type
	} else {
		typ = n.Lit.Type
	}
	checkHotBody(hc, span{n.Root.nodePos(), n.Root.nodeEnd()}, recv, typ, n.Body())
}

func (n *FuncNode) nodePos() token.Pos {
	if n.Lit != nil {
		return n.Lit.Pos()
	}
	return n.Decl.Pos()
}

func (n *FuncNode) nodeEnd() token.Pos {
	if n.Lit != nil {
		return n.Lit.End()
	}
	return n.Decl.End()
}
