package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
)

// Obsgate makes PR 1's "provably zero cost when disabled" observability
// claim a static theorem. The obs emission surfaces themselves are
// nil-tolerant and allocation-free, so a *bare* emission with cheap
// arguments is legal anywhere; what breaks the claim is paying to build
// an argument — a fmt.Sprintf, a string concatenation, a composite
// literal — on a path that executes even when tracing is disabled. The
// repo's convention is to bracket such emissions in the matching
// enabled-guard:
//
//	if l.obs.Tracing() {
//		l.obs.InstantArg(node, obs.LayerFiber, "tx", fmt.Sprintf(...), seq, n)
//	}
//
// Obsgate checks that convention with a forward dataflow analysis over
// the function's CFG (cfg.go, dataflow.go):
//
//   - dominating guards (must-analysis, intersection at joins): the true
//     edge of `recv.Tracing()` — possibly negated, in a && chain, or
//     stored in a bool local — establishes the guard for recv;
//     `recv.CaptureLog() != nil` establishes the capture guard.
//     Assigning to the receiver kills its guards.
//   - taint (may-analysis): a local assigned from an allocating
//     expression remembers which guards dominated its *definition*, so
//     `s := fmt.Sprintf(...); if o.Tracing() { o.InstantArg(.., s, ..) }`
//     is still a finding — the allocation escaped the guard even though
//     the emission did not.
//
// Trace and capture emissions with a costly argument must be dominated
// by their receiver's guard. Metric emissions (Counter.Inc/Add,
// Histogram.Observe) have no disabled state, so a costly argument is
// reported unconditionally: precompute it at registration time (the
// Registry's Counter/Gauge/Histogram constructors are setup surfaces and
// are exempt). Package nectar/internal/obs itself is exempt — the
// implementation owns its own guards.
var Obsgate = &Analyzer{
	Name: "obsgate",
	Doc: "every obs trace/capture emission whose arguments allocate or format must be dominated by the matching " +
		"enabled-guard branch (recv.Tracing(), recv.CaptureLog() != nil), including the allocations feeding it " +
		"through locals; metric emissions must not take allocating arguments at all. This makes the zero-cost-" +
		"when-disabled observability claim a static theorem instead of a sampled AllocsPerRun test.",
	Run: runObsgate,
}

// obsPkgPath is the observability package whose emission surfaces are
// guarded.
const obsPkgPath = "nectar/internal/obs"

// The guard surfaces, by function ID.
const (
	obsTracingID    = "(*nectar/internal/obs.Observer).Tracing"
	obsCaptureLogID = "(*nectar/internal/obs.Observer).CaptureLog"
)

// obsGuardKind distinguishes the two guard families.
const (
	guardTrace   = "t:" // recv.Tracing()
	guardCapture = "c:" // recv.CaptureLog() != nil
)

// obsFact is the dataflow fact: the set of guard keys known true, the
// costly locals (with the guards that dominated their definition), and
// the bool locals witnessing a guard call.
type obsFact struct {
	guards map[string]bool
	taint  map[types.Object]map[string]bool
	wit    map[types.Object]string
}

func newObsFact() obsFact {
	return obsFact{guards: map[string]bool{}, taint: map[types.Object]map[string]bool{}, wit: map[types.Object]string{}}
}

func (f obsFact) clone() obsFact {
	out := obsFact{guards: maps.Clone(f.guards), taint: maps.Clone(f.taint), wit: maps.Clone(f.wit)}
	for o, g := range f.taint {
		out.taint[o] = maps.Clone(g)
	}
	return out
}

func obsJoin(a, b obsFact) obsFact {
	out := newObsFact()
	for k := range a.guards {
		if b.guards[k] {
			out.guards[k] = true
		}
	}
	// Taint is a may-analysis: keep every costly definition, and for a
	// local costly on both paths keep only the guards common to both.
	for o, ga := range a.taint {
		if gb, ok := b.taint[o]; ok {
			gs := map[string]bool{}
			for k := range ga {
				if gb[k] {
					gs[k] = true
				}
			}
			out.taint[o] = gs
		} else {
			out.taint[o] = maps.Clone(ga)
		}
	}
	for o, gb := range b.taint {
		if _, ok := out.taint[o]; !ok {
			out.taint[o] = maps.Clone(gb)
		}
	}
	// Witnesses are a must-analysis.
	for o, k := range a.wit {
		if b.wit[o] == k {
			out.wit[o] = k
		}
	}
	return out
}

func obsEqual(a, b obsFact) bool {
	return maps.Equal(a.guards, b.guards) && maps.Equal(a.wit, b.wit) &&
		maps.EqualFunc(a.taint, b.taint, maps.Equal[map[string]bool, map[string]bool])
}

// obsChecker runs the analysis over one function body (and, recursively,
// its func literals).
type obsChecker struct {
	pass *Pass
	info *types.Info
}

func runObsgate(pass *Pass) (any, error) {
	path := canonicalPkgPath(pass.PkgPath)
	if !IsDeterministicPkg(path) || path == obsPkgPath {
		return nil, nil
	}
	oc := &obsChecker{pass: pass, info: pass.TypesInfo}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				oc.checkBody(fd.Body, newObsFact())
			}
		}
	}
	return nil, nil
}

// checkBody solves the guard/taint dataflow over body and checks every
// emission against the fact holding at its statement. entry seeds the
// analysis: func literals inherit the fact at their creation point
// (tracing state is set once at simulation setup, so a guard observed
// when a callback is scheduled still holds when it runs).
func (oc *obsChecker) checkBody(body *ast.BlockStmt, entry obsFact) {
	cfg := buildCFG(body)
	in, reached := solve(cfg, flow[obsFact]{
		boundary: entry,
		join:     obsJoin,
		equal:    obsEqual,
		transfer: oc.transfer,
		branch:   oc.branch,
	})
	for _, blk := range cfg.Blocks {
		if !reached[blk.Index] {
			continue
		}
		f := in[blk.Index]
		for _, n := range blk.Nodes {
			oc.inspect(n, f)
			f = oc.transfer(n, f)
		}
	}
}

// inspect checks the emissions inside one block node against fact f.
// Func literals are analyzed recursively with f as their entry fact and
// excluded from this walk.
func (oc *obsChecker) inspect(n ast.Node, f obsFact) {
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			oc.checkBody(x.Body, f.clone())
			return false
		case *ast.CallExpr:
			oc.checkEmission(x, f)
		}
		return true
	})
}

// checkEmission reports costly arguments of a trace, capture or metric
// emission (emissionSurfaces) that are not covered by the required
// guard. Registration surfaces (Registry.Counter/Gauge/Histogram) are
// not emissions: they run once at setup and may format their scope
// freely.
func (oc *obsChecker) checkEmission(call *ast.CallExpr, f obsFact) {
	kind := emissionOf(oc.info, call)
	sel, ok := unparenIndex(call.Fun).(*ast.SelectorExpr)
	if !ok || kind != emitTrace && kind != emitCapture && kind != emitMetric {
		return
	}
	rk := types.ExprString(sel.X)
	var keys []string // the guards that excuse a costly argument
	var what, guard string
	switch kind {
	case emitTrace:
		keys, what, guard = []string{guardTrace + rk}, "trace", rk+".Tracing()"
	case emitCapture:
		// Either guard excuses a costly capture argument: tracing implies
		// the observer is live, and the capture guard is the precise one.
		keys, what, guard = []string{guardCapture + rk, guardTrace + rk}, "capture", rk+".CaptureLog() != nil"
	}
	for _, arg := range call.Args {
		pos, why := oc.costlyArg(arg, f, keys)
		if why == "" {
			continue
		}
		if kind == emitMetric {
			oc.pass.Reportf(pos, "obs metric %s has no disabled state, but its argument %s; "+
				"precompute at registration time (metrics must stay allocation-free)", sel.Sel.Name, why)
		} else {
			oc.pass.Reportf(pos, "obs %s %s argument %s outside the %s guard; "+
				"this code pays the cost even when observability is disabled — move it under the guard branch",
				what, sel.Sel.Name, why, guard)
		}
	}
}

// costlyArg decides whether arg costs something on the disabled path:
// either the expression itself allocates/formats and no accepted guard
// currently holds, or it names a local whose (allocating) definition was
// not dominated by an accepted guard. It returns the position to report
// and a description, or ("") when the argument is free.
func (oc *obsChecker) costlyArg(arg ast.Expr, f obsFact, keys []string) (token.Pos, string) {
	guarded := func(gs map[string]bool) bool {
		if len(keys) == 0 {
			return false // metric: no guard can excuse the cost
		}
		for _, k := range keys {
			if gs[k] {
				return true
			}
		}
		return false
	}
	if e := oc.costlyExpr(arg); e != nil {
		if guarded(f.guards) {
			return token.NoPos, ""
		}
		return e.Pos(), describeCost(e)
	}
	if id, ok := unparenIndex(arg).(*ast.Ident); ok {
		if obj := oc.info.Uses[id]; obj != nil {
			if defGuards, tainted := f.taint[obj]; tainted && !guarded(defGuards) {
				return id.Pos(), "was built by an allocating expression"
			}
		}
	}
	return token.NoPos, ""
}

// obsCostlyStrconv/Strings (with fmtFormatters) list the library calls
// obsgate treats as allocating when they feed an emission.
var obsCostlyStrconv = map[string]bool{
	"Itoa": true, "FormatInt": true, "FormatUint": true, "FormatFloat": true,
	"FormatBool": true, "Quote": true, "AppendInt": true, "AppendUint": true,
}

var obsCostlyStrings = map[string]bool{
	"Join": true, "Repeat": true, "Replace": true, "ReplaceAll": true,
	"ToUpper": true, "ToLower": true, "Split": true, "Fields": true, "Map": true,
}

// costlyExpr returns the first allocating/formatting expression inside e
// (e itself or a subexpression), or nil. Func literal bodies are not
// entered — they are analyzed as their own functions.
func (oc *obsChecker) costlyExpr(e ast.Expr) ast.Expr {
	var found ast.Expr
	ast.Inspect(e, func(x ast.Node) bool {
		if found != nil {
			return false
		}
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CompositeLit:
			found = x
			return false
		case *ast.BinaryExpr:
			if x.Op == token.ADD {
				tv := oc.info.Types[x]
				if tv.Type != nil && tv.Value == nil {
					if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						found = x
						return false
					}
				}
			}
		case *ast.CallExpr:
			if oc.costlyCall(x) {
				found = x
				return false
			}
		}
		return true
	})
	return found
}

// costlyCall reports whether call is an allocating library call, an
// allocating builtin, a Markf-style formatting method, or a
// string<->[]byte/[]rune conversion.
func (oc *obsChecker) costlyCall(call *ast.CallExpr) bool {
	info := oc.info
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		// Conversion: string([]byte), []byte(string), string(rune), ...
		return allocatingConversion(info, call, tv.Type)
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if info.Types[call.Fun].IsBuiltin() {
			return fun.Name == "append" || fun.Name == "make" || fun.Name == "new"
		}
	case *ast.SelectorExpr:
		switch pkgNameOf(info, fun.X) {
		case "fmt":
			return fmtFormatters[fun.Sel.Name]
		case "strconv":
			return obsCostlyStrconv[fun.Sel.Name]
		case "strings":
			return obsCostlyStrings[fun.Sel.Name]
		}
		if fmtMethod(info, call) != "" {
			return true
		}
	}
	return false
}

// allocatingConversion reports conversions that copy their operand:
// between string and []byte/[]rune, or rune/integer to string.
func allocatingConversion(info *types.Info, call *ast.CallExpr, target types.Type) bool {
	if len(call.Args) != 1 {
		return false
	}
	src := info.Types[call.Args[0]]
	if src.Type == nil {
		return false
	}
	isStr := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteOrRuneSlice := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
			b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	switch {
	case isStr(target) && isByteOrRuneSlice(src.Type):
		return true
	case isByteOrRuneSlice(target) && isStr(src.Type):
		return true
	case isStr(target) && !isStr(src.Type):
		// rune/int -> string conversion allocates. Constant-folded
		// conversions (src.Value != nil with a constant result) do too at
		// runtime only if not constant; be conservative and skip consts.
		return src.Value == nil
	}
	return false
}

// --- dataflow callbacks ---

// transfer applies assignments: kills guards on receivers being
// reassigned, records costly definitions, and tracks bool witnesses.
func (oc *obsChecker) transfer(n ast.Node, f obsFact) obsFact {
	switch n := n.(type) {
	case *ast.AssignStmt:
		out := f
		if len(n.Lhs) == len(n.Rhs) {
			for i, lhs := range n.Lhs {
				out = oc.assign(out, lhs, n.Rhs[i], n.Tok)
			}
		} else {
			for _, lhs := range n.Lhs {
				out = oc.assign(out, lhs, nil, n.Tok)
			}
		}
		return out
	case *ast.DeclStmt:
		out := f
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for i, name := range vs.Names {
						var rhs ast.Expr
						if i < len(vs.Values) {
							rhs = vs.Values[i]
						}
						out = oc.assign(out, name, rhs, token.DEFINE)
					}
				}
			}
		}
		return out
	case *ast.RangeStmt:
		out := f
		for _, lhs := range []ast.Expr{n.Key, n.Value} {
			if lhs != nil {
				out = oc.assign(out, lhs, nil, n.Tok)
			}
		}
		return out
	case *ast.IncDecStmt:
		return oc.assign(f, n.X, nil, token.ASSIGN)
	}
	return f
}

// assign updates the fact for one lhs <- rhs binding. A nil rhs means
// "assigned something unknown".
func (oc *obsChecker) assign(f obsFact, lhs, rhs ast.Expr, tok token.Token) obsFact {
	out := f.clone()
	// Reassigning any identifier kills guards keyed on expressions
	// rooted at it (o = other invalidates "o.Tracing()" knowledge).
	if root := rootIdent(lhs); root != nil {
		for k := range out.guards {
			if guardRoot(k) == root.Name {
				delete(out.guards, k)
			}
		}
	}
	id, ok := unparenIndex(lhs).(*ast.Ident)
	if !ok {
		return out
	}
	obj := oc.info.Defs[id]
	if obj == nil {
		obj = oc.info.Uses[id]
	}
	if obj == nil {
		return out
	}
	delete(out.taint, obj)
	delete(out.wit, obj)
	if rhs == nil {
		return out
	}
	if tok != token.DEFINE && tok != token.ASSIGN {
		// Compound assignment (s += ...): the lhs accumulates; a string
		// += allocates.
		if b, okb := obj.Type().Underlying().(*types.Basic); okb && b.Info()&types.IsString != 0 {
			gs := make(map[string]bool, len(out.guards))
			for k := range out.guards {
				gs[k] = true
			}
			out.taint[obj] = gs
		}
		return out
	}
	if oc.costlyExpr(rhs) != nil {
		gs := make(map[string]bool, len(out.guards))
		for k := range out.guards {
			gs[k] = true
		}
		out.taint[obj] = gs
		return out
	}
	if key := oc.guardWitness(rhs); key != "" {
		out.wit[obj] = key
	}
	return out
}

// guardWitness recognizes rhs expressions that witness a guard:
// recv.Tracing() and recv.CaptureLog() != nil.
func (oc *obsChecker) guardWitness(rhs ast.Expr) string {
	var keys []string
	condAtoms(rhs, true, func(e ast.Expr, v bool) {
		if key := oc.guardKey(e, v, obsFact{}); key != "" {
			keys = append(keys, key)
		}
	})
	if len(keys) == 1 {
		return keys[0]
	}
	return ""
}

// branch refines the fact along the true/false edge of a condition.
func (oc *obsChecker) branch(cond ast.Expr, takenTrue bool, f obsFact) obsFact {
	out, copied := f, false
	condAtoms(cond, takenTrue, func(e ast.Expr, v bool) {
		key := oc.guardKey(e, v, f)
		if key == "" {
			return
		}
		if !copied {
			out, copied = f.clone(), true
		}
		out.guards[key] = true
	})
	return out
}

// guardKey is obsgate's leaf test for condAtoms: the guard key that
// leaf e evaluating to v establishes, or "". f supplies the bool-witness
// bindings so that `on := o.Tracing(); if on { ... }` counts as the
// guard.
func (oc *obsChecker) guardKey(e ast.Expr, v bool, f obsFact) string {
	switch e := e.(type) {
	case *ast.BinaryExpr:
		// recv.CaptureLog() != nil holds on the true edge, == nil on the
		// false edge.
		if e.Op == token.NEQ && v || e.Op == token.EQL && !v {
			if x, nilSide := nonNilOperand(e); nilSide {
				return oc.guardCall(x, obsCaptureLogID, guardCapture)
			}
		}
	case *ast.CallExpr:
		if v {
			return oc.guardCall(e, obsTracingID, guardTrace)
		}
	case *ast.Ident:
		if v {
			if obj := oc.info.Uses[e]; obj != nil {
				return f.wit[obj]
			}
		}
	}
	return ""
}

// guardCall returns the guard key prefix+recv when e is the method call
// recv.M() of the guard surface id, "" otherwise.
func (oc *obsChecker) guardCall(e ast.Expr, id, prefix string) string {
	call, ok := unparenIndex(e).(*ast.CallExpr)
	if !ok || calleeID(oc.info, call) != id {
		return ""
	}
	sel, ok := unparenIndex(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	return prefix + types.ExprString(sel.X)
}

// nonNilOperand returns the non-nil operand of a comparison against nil
// and whether one side is in fact nil.
func nonNilOperand(c *ast.BinaryExpr) (ast.Expr, bool) {
	if id, ok := unparenIndex(c.Y).(*ast.Ident); ok && id.Name == "nil" {
		return c.X, true
	}
	if id, ok := unparenIndex(c.X).(*ast.Ident); ok && id.Name == "nil" {
		return c.Y, true
	}
	return nil, false
}

// guardRoot extracts the root identifier from a guard key ("t:l.obs" ->
// "l").
func guardRoot(key string) string {
	s := key[len(guardTrace):] // both prefixes have length 2
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '.', '[', '(':
			return s[:i]
		}
	}
	return s
}

// describeCost renders a short description of an allocating expression.
func describeCost(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.CallExpr:
		switch fun := e.Fun.(type) {
		case *ast.SelectorExpr:
			if id, ok := fun.X.(*ast.Ident); ok {
				return "calls " + id.Name + "." + fun.Sel.Name
			}
			return "calls " + fun.Sel.Name
		case *ast.Ident:
			return "calls " + fun.Name
		}
		return "allocates"
	case *ast.BinaryExpr:
		return "concatenates strings"
	case *ast.CompositeLit:
		return "builds a composite literal"
	}
	return "allocates"
}
