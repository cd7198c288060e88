package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Hotpath audits functions annotated //nectar:hotpath for obvious
// allocation sources, and everything those roots reach. The annotation
// marks the per-event fast paths that the AllocsPerRun guards hold at
// zero (the sim event queue, mailbox put/get, checksum, and the
// fiber/cab pool paths); the analyzer makes the same contract visible at
// the line that would break it, instead of in a benchmark failure three
// layers away.
//
// Reported allocation sources:
//
//   - fmt.Sprintf/Sprint/Sprintln/Errorf/Fprintf/Appendf and Markf-style
//     calls: the variadic ...any slice and its boxed elements allocate
//     even when the result is discarded. (Calls inside a panic(...)
//     argument are exempt — invariant-violation paths are dead in steady
//     state.)
//   - append to a local slice declared without capacity: `var s []T` /
//     `s := []T{}` / `s := make([]T, n)` grow from nil every call.
//     Appends to struct fields or parameters are amortized by the
//     caller's steady state (pool-backed or retained capacity) and are
//     not flagged.
//   - value-to-interface conversion in call arguments or assignments:
//     boxing a concrete value into an interface escapes it.
//   - capturing closures: a func literal referencing variables from the
//     enclosing function allocates the closure (and often the captures).
//
// An annotated root's findings read "hotpath <name>: ...". The same rules
// then apply to every function reachable from a root through the program
// call graph (callgraph.go — static calls, interface method sets, and
// named function values handed to the approved spawn surfaces); those
// findings carry the discovery chain from the root, so
// "(*Mailbox).pop -> emit -> format" reads as the path a hot event would
// actually take. A helper that legitimately allocates (a cold
// reconfiguration path, a once-per-run setup) is pruned from the walk by
// //nectar:hotpath-exempt <reason>, and everything reachable only
// through it is pruned with it.
//
// Under the whole-program driver (standalone nectar-vet, the repo
// regression test) the graph spans every module package; under
// analysistest it degrades to the package at hand, which still exercises
// every rule the fixtures pin down.
var Hotpath = &Analyzer{
	Name: "hotpath",
	Doc: "for functions annotated //nectar:hotpath and every function reachable from them through the call graph, " +
		"report obvious allocation sources: fmt.Sprintf/Markf-style calls, append to a local slice declared without " +
		"capacity, value-to-interface conversions, and capturing closures. Reached functions print the offending " +
		"call chain; //nectar:hotpath-exempt <reason> prunes a function from the walk.",
	Run: runHotpath,
}

// hotpathFmtMethods lists the Markf-style methods (matched by name on
// any receiver) whose variadic ...any allocates like fmt's formatters.
var hotpathFmtMethods = map[string]bool{
	"Markf": true, "Tracef": true, "Logf": true,
}

func runHotpath(pass *Pass) (any, error) {
	prog := pass.Program
	prog.ensureHot()
	for _, d := range prog.hotDiags[canonicalPkgPath(pass.PkgPath)] {
		pass.Report(d)
	}
	return nil, nil
}

// hotChecker applies the intraprocedural hotpath purity rules to one
// function body and reports findings through a sink that either
// prefixes the annotated root's name or wraps the message in a
// call-chain sentence (callgraph.go).
type hotChecker struct {
	info   *types.Info
	report func(pos token.Pos, format string, args ...any)
}

// checkHotBody audits one function body. captureSpan is the source range
// of the enclosing top-level declaration: closure-capture analysis flags
// func literals referencing variables declared inside that span but
// outside the literal itself. recv and typ supply the parameter lists
// whose slices count as caller-managed storage for the append rule.
func checkHotBody(hc *hotChecker, captureSpan span, recv *ast.FieldList, typ *ast.FuncType, body *ast.BlockStmt) {
	if body == nil {
		return
	}
	presized := hc.presizedLocals(recv, typ, body)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if hc.isPanicCall(n) {
				// Invariant-violation path: arguments (typically a
				// Sprintf) only evaluate when the simulation is already
				// dead. Skip the whole subtree.
				return false
			}
			hc.checkCall(n, presized)
		case *ast.AssignStmt:
			hc.checkAssign(n)
		case *ast.FuncLit:
			hc.checkCapture(captureSpan, n)
		}
		return true
	})
}

// checkCall reports formatter calls, unsized appends, and interface-
// boxing arguments.
func (hc *hotChecker) checkCall(call *ast.CallExpr, presized map[types.Object]bool) {
	info := hc.info
	// Formatter calls.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if pkgNameOf(info, sel.X) == "fmt" && fmtFormatters[sel.Sel.Name] {
			hc.report(call.Pos(), "fmt.%s allocates its variadic args; precompute the string", sel.Sel.Name)
			return
		}
		if name := fmtMethod(info, call); name != "" {
			hc.report(call.Pos(), "%s builds its variadic args even when tracing is off; "+
				"precompute the mark name and call the non-formatting variant", name)
			return
		}
	}
	// append to an unsized local.
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" && len(call.Args) > 0 {
		if info.Types[call.Fun].IsBuiltin() {
			if base, ok := call.Args[0].(*ast.Ident); ok {
				if obj := info.ObjectOf(base); obj != nil {
					if grown, ok := presized[obj]; ok && !grown {
						hc.report(call.Pos(), "append grows local %q declared without capacity; "+
							"pre-size it (make with cap, or reuse pooled storage via x[:0])", base.Name)
					}
				}
			}
			return
		}
	}
	// Interface-boxing arguments.
	sig := callSignature(info, call)
	if sig == nil {
		return
	}
	for i, arg := range call.Args {
		pt := paramType(sig, i, call)
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		at := info.Types[arg]
		if at.Type == nil || types.IsInterface(at.Type.Underlying()) || at.IsNil() {
			continue
		}
		hc.report(arg.Pos(), "argument converts %s to %s (allocates); keep hot-path signatures concrete",
			at.Type, pt)
	}
}

// checkAssign reports assignments that box a concrete value into an
// interface-typed variable or field.
func (hc *hotChecker) checkAssign(as *ast.AssignStmt) {
	info := hc.info
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		var lt types.Type
		if as.Tok == token.DEFINE {
			continue // inferred type: no conversion
		}
		if tv, ok := info.Types[lhs]; ok {
			lt = tv.Type
		}
		if lt == nil || !types.IsInterface(lt.Underlying()) {
			continue
		}
		rt := info.Types[as.Rhs[i]]
		if rt.Type == nil || types.IsInterface(rt.Type.Underlying()) || rt.IsNil() {
			continue
		}
		hc.report(as.Rhs[i].Pos(), "assignment converts %s to %s (allocates)", rt.Type, lt)
	}
}

// checkCapture reports func literals that capture variables from the
// enclosing declaration (the captureSpan).
func (hc *hotChecker) checkCapture(captureSpan span, lit *ast.FuncLit) {
	info := hc.info
	seen := make(map[types.Object]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil || seen[obj] {
			return true
		}
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Captured iff declared inside the enclosing declaration but
		// outside the literal itself.
		if v.Pos() < captureSpan.from || v.Pos() >= captureSpan.to {
			return true // package-level or foreign
		}
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true // the literal's own params/locals
		}
		seen[obj] = true
		hc.report(id.Pos(), "closure captures %q (a capturing closure allocates); "+
			"hoist the closure or pass state explicitly", v.Name())
		return true
	})
}

// presizedLocals classifies the function's local slice variables: the
// map holds every local slice referenced by an append; the value records
// whether its declaration provides steady-state capacity (make with an
// explicit cap, a reslice of existing storage, a call result such as a
// pool Get, or a parameter). Fields and package-level slices are not in
// the map (their capacity is amortized across calls).
func (hc *hotChecker) presizedLocals(recv *ast.FieldList, typ *ast.FuncType, body *ast.BlockStmt) map[types.Object]bool {
	info := hc.info
	out := make(map[types.Object]bool)
	// Parameters, results, and the receiver are the caller's storage.
	for _, fl := range []*ast.FieldList{recv, typ.Params, typ.Results} {
		if fl == nil {
			continue
		}
		for _, fld := range fl.List {
			for _, name := range fld.Names {
				if obj := info.ObjectOf(name); obj != nil {
					out[obj] = true
				}
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeclStmt:
			// var s []T — no capacity.
			if gd, ok := n.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for i, name := range vs.Names {
						obj := info.ObjectOf(name)
						if obj == nil || !isSliceObj(obj) {
							continue
						}
						if i < len(vs.Values) {
							out[obj] = exprProvidesCapacity(info, vs.Values[i])
						} else {
							out[obj] = false
						}
					}
				}
			}
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE || len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := info.Defs[id]
				if obj == nil || !isSliceObj(obj) {
					continue
				}
				out[obj] = exprProvidesCapacity(info, n.Rhs[i])
			}
		}
		return true
	})
	return out
}

func isSliceObj(obj types.Object) bool {
	if obj == nil || obj.Type() == nil {
		return false
	}
	_, ok := obj.Type().Underlying().(*types.Slice)
	return ok
}

// exprProvidesCapacity reports whether initializing a slice from e gives
// it storage that append can reuse in steady state.
func exprProvidesCapacity(info *types.Info, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "make" && info.Types[e.Fun].IsBuiltin() {
			return len(e.Args) >= 3 // make([]T, n, cap)
		}
		return true // pool Get or other call: caller-managed storage
	case *ast.SliceExpr:
		return true // s[:0]-style reuse of existing storage
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr:
		return true // aliases existing storage
	case *ast.CompositeLit:
		return false // []T{...} allocates fresh every call
	}
	return false
}

// isPanicCall reports whether call is the builtin panic or the
// sanctioned formatted-panic helper sim.Panicf (determinism.go routes
// the repo's formatted invariant panics through it; its arguments are just
// as dead in steady state as a builtin panic's).
func (hc *hotChecker) isPanicCall(call *ast.CallExpr) bool {
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" && hc.info.Types[call.Fun].IsBuiltin() {
		return true
	}
	return calleeID(hc.info, call) == "nectar/internal/sim.Panicf"
}

// callSignature returns the signature of the called function, nil for
// builtins and type conversions.
func callSignature(info *types.Info, call *ast.CallExpr) *types.Signature {
	tv, ok := info.Types[call.Fun]
	if !ok || tv.Type == nil || tv.IsType() || tv.IsBuiltin() {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

// paramType returns the declared type of argument i of sig, expanding
// the variadic tail ([]any -> any per argument). It returns nil for the
// f(slice...) spread form, which performs no per-element conversion.
func paramType(sig *types.Signature, i int, call *ast.CallExpr) types.Type {
	params := sig.Params()
	n := params.Len()
	if n == 0 {
		return nil
	}
	if sig.Variadic() && i >= n-1 {
		if call.Ellipsis.IsValid() {
			return nil
		}
		last := params.At(n - 1).Type()
		if s, ok := last.Underlying().(*types.Slice); ok {
			return s.Elem()
		}
		return nil
	}
	if i >= n {
		return nil
	}
	return params.At(i).Type()
}
