package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Shardsafe is a static race detector for the PDES coupling model. The
// sharded simulator (internal/sim/pdes.go) runs one kernel per domain on
// its own goroutine; determinism and memory safety both depend on each
// domain touching only its own kernel, heap, arena, and observer sinks,
// with cross-domain traffic flowing exclusively through the pendingInj
// outbox drained at the window barrier. That discipline was previously
// prose. Shardsafe makes it checkable:
//
//   - State is annotated //nectar:shard-owned — on a struct field (the
//     per-domain kernel handle, the outbox) or on a whole type (the
//     kernel's event storage). The annotation is a fact visible to every
//     package in the program.
//   - An access to shard-owned state is legal only when its base
//     expression provably belongs to the executing shard: the method
//     receiver, a function parameter, a local derived from those, a
//     fresh composite literal, or a call result (constructors and
//     accessors return state they own). Indexing into a collection,
//     ranging over one, receiving from a channel, or reading a package
//     variable all reach *some* shard's state with no proof it is ours —
//     those bases are reported.
//   - The audited cross-domain surfaces — the barrier drain that is the
//     one place allowed to touch every domain — carry
//     //nectar:shard-boundary <reason>, and shardsafe skips their
//     bodies. The waiver needs a reason, and a misplaced or bare one is
//     itself a diagnostic (the directive table in directives.go).
//
// The ownership rules follow the annotation style of Clang's
// thread-safety analysis (GUARDED_BY et al.) transplanted to Go syntax:
// ownership is a property of the access path, not the lock state.
var Shardsafe = &Analyzer{
	Name: "shardsafe",
	Doc: "static race detector for the PDES coupling model: state annotated //nectar:shard-owned may only be " +
		"accessed through a receiver/parameter ownership chain; cross-domain flow must go through functions " +
		"annotated //nectar:shard-boundary <reason>.",
	Run: runShardsafe,
}

// shardFactTable records the program's //nectar:shard-owned annotations.
type shardFactTable struct {
	fields map[*types.Var]bool      // annotated struct fields
	types  map[*types.TypeName]bool // annotated named types
}

// ensureShardFacts collects shard-owned annotations from every package
// in the program, once.
func (prog *Program) ensureShardFacts() *shardFactTable {
	if prog.shardOnce {
		return prog.shardFacts
	}
	prog.shardOnce = true
	t := &shardFactTable{
		fields: make(map[*types.Var]bool),
		types:  make(map[*types.TypeName]bool),
	}
	prog.shardFacts = t
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			var sites map[*ast.CommentGroup]ast.Node // built on the first annotation
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if d, ok := parseDirective(pkg.Fset, c); !ok || d.verb != DirShardOwned {
						continue
					}
					if sites == nil {
						sites = docSites(f)
					}
					t.record(pkg.TypesInfo, sites[cg])
				}
			}
		}
	}
	return t
}

// record adds the type or fields a //nectar:shard-owned comment group
// documents. A type declaration's own doc covers its type only when it
// declares exactly one.
func (t *shardFactTable) record(info *types.Info, site ast.Node) {
	switch site := site.(type) {
	case *ast.GenDecl:
		if len(site.Specs) == 1 {
			t.record(info, site.Specs[0])
		}
	case *ast.TypeSpec:
		if tn, ok := info.Defs[site.Name].(*types.TypeName); ok {
			t.types[tn] = true
		}
	case *ast.Field:
		for _, name := range site.Names {
			if v, ok := info.Defs[name].(*types.Var); ok {
				t.fields[v] = true
			}
		}
	}
}

func runShardsafe(pass *Pass) (any, error) {
	prog := pass.Program
	facts := prog.ensureShardFacts()
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || pass.IsTestFile(fd.Pos()) {
				continue
			}
			if hasWaiver(pass.Fset, fd, DirShardBoundary) {
				continue // audited cross-domain surface
			}
			checkShardFunc(pass, facts, fd)
		}
	}
	return nil, nil
}

// checkShardFunc audits one function body: every selector resolving to
// shard-owned state must have a provably-owned base expression. Field
// and type findings on one selector chain are deduplicated — the field
// finding (the more precise of the two) wins.
func checkShardFunc(pass *Pass, facts *shardFactTable, fd *ast.FuncDecl) {
	ow := newOwner(pass.TypesInfo, fd)
	info := pass.TypesInfo
	type finding struct {
		sel *ast.SelectorExpr
		msg string
	}
	var fieldFinds, typeFinds []finding
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		// Field facts: x.f where f is annotated (including promoted
		// fields through embedding).
		if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
			if v, ok := s.Obj().(*types.Var); ok && facts.fields[v] {
				if !ow.ownedExpr(sel.X) {
					fieldFinds = append(fieldFinds, finding{sel, fmt.Sprintf(
						"shard-owned field %q reached through a non-owned path", v.Name())})
				}
				return true
			}
		}
		// Type facts: any field or method selection on a value of an
		// annotated named type.
		if tv, ok := info.Types[sel.X]; ok && tv.Type != nil {
			if tn := namedTypeName(tv.Type); tn != nil && facts.types[tn] {
				if !ow.ownedExpr(sel.X) {
					typeFinds = append(typeFinds, finding{sel, fmt.Sprintf(
						"shard-owned type %s used through a non-owned path", tn.Name())})
				}
			}
		}
		return true
	})
	const rule = "; per-shard state may only be accessed via the owning shard's receiver/parameter chain, " +
		"or from a //nectar:shard-boundary function"
	for _, f := range fieldFinds {
		pass.Reportf(f.sel.Sel.Pos(), "%s%s", f.msg, rule)
	}
	for _, f := range typeFinds {
		// `doms[i].k.Step()` fails both as a field access (k) and as a
		// use of the shard-owned kernel type; one report is enough.
		covered := false
		for _, ff := range fieldFinds {
			if f.sel.X.Pos() <= ff.sel.Sel.Pos() && ff.sel.Sel.Pos() < f.sel.X.End() {
				covered = true
				break
			}
		}
		if !covered {
			pass.Reportf(f.sel.Sel.Pos(), "%s%s", f.msg, rule)
		}
	}
}

// namedTypeName unwraps pointers and returns the *types.TypeName of a
// named type, or nil.
func namedTypeName(t types.Type) *types.TypeName {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj()
	}
	return nil
}

// owner answers "does this expression provably belong to the executing
// shard?" for one function. Seeds (receiver, parameters, named results,
// closure parameters, zero-value var declarations) are owned; locals are
// owned iff every value assigned to them is owned; range variables and
// anything reached through an index, a channel receive, or a package
// variable are not.
type owner struct {
	info     *types.Info
	seeds    map[types.Object]bool
	unowned  map[types.Object]bool
	sources  map[types.Object][]ast.Expr
	visiting map[types.Object]bool
}

func newOwner(info *types.Info, fd *ast.FuncDecl) *owner {
	ow := &owner{
		info:     info,
		seeds:    make(map[types.Object]bool),
		unowned:  make(map[types.Object]bool),
		sources:  make(map[types.Object][]ast.Expr),
		visiting: make(map[types.Object]bool),
	}
	seedFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, fld := range fl.List {
			for _, name := range fld.Names {
				if obj := info.ObjectOf(name); obj != nil {
					ow.seeds[obj] = true
				}
			}
		}
	}
	seedFields(fd.Recv)
	seedFields(fd.Type.Params)
	seedFields(fd.Type.Results)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A closure's own parameters are caller-supplied, like a
			// function's.
			seedFields(n.Type.Params)
			seedFields(n.Type.Results)
		case *ast.RangeStmt:
			// Range variables designate one element among many: no
			// proof of same-shard ownership.
			for _, e := range []ast.Expr{n.Key, n.Value} {
				if id, ok := e.(*ast.Ident); ok {
					if obj := info.ObjectOf(id); obj != nil {
						ow.unowned[obj] = true
					}
				}
			}
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						if obj := info.ObjectOf(id); obj != nil {
							ow.sources[obj] = append(ow.sources[obj], n.Rhs[i])
						}
					}
				}
			} else if len(n.Rhs) == 1 {
				for _, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						if obj := info.ObjectOf(id); obj != nil {
							ow.sources[obj] = append(ow.sources[obj], n.Rhs[0])
						}
					}
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				obj := info.ObjectOf(name)
				if obj == nil {
					continue
				}
				if i < len(n.Values) {
					ow.sources[obj] = append(ow.sources[obj], n.Values[i])
				} else if len(n.Values) == 1 {
					ow.sources[obj] = append(ow.sources[obj], n.Values[0])
				} else {
					// var d Domain — a fresh zero value created here.
					ow.seeds[obj] = true
				}
			}
		}
		return true
	})
	return ow
}

// ownedExpr reports whether e provably denotes state of the executing
// shard.
func (ow *owner) ownedExpr(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return ow.ownedObj(ow.info.ObjectOf(e))
	case *ast.SelectorExpr:
		if pkgNameOf(ow.info, e.X) != "" {
			return false // package-level variable: shared by every shard
		}
		return ow.ownedExpr(e.X) // a field of owned state is owned
	case *ast.CallExpr:
		return true // constructors/accessors return state they own
	case *ast.CompositeLit:
		return true // freshly built here
	case *ast.FuncLit:
		return true
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return ow.ownedExpr(e.X)
		}
		return false // <-ch receives cross-domain values by construction
	case *ast.StarExpr:
		return ow.ownedExpr(e.X)
	case *ast.ParenExpr:
		return ow.ownedExpr(e.X)
	case *ast.TypeAssertExpr:
		return ow.ownedExpr(e.X)
	case *ast.IndexExpr, *ast.IndexListExpr, *ast.SliceExpr:
		return false // selects one shard's state out of a collection
	}
	return false
}

// ownedObj resolves ownership for an identifier's object.
func (ow *owner) ownedObj(obj types.Object) bool {
	if obj == nil {
		return true // type error: degrade quietly
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return true // consts, funcs, types carry no shard state
	}
	if ow.seeds[obj] {
		return true
	}
	if ow.unowned[obj] {
		return false
	}
	if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return false // package-level variable
	}
	srcs, ok := ow.sources[obj]
	if !ok {
		return true // no assignment seen (e.g. type-switch binding): stay quiet
	}
	if ow.visiting[obj] {
		return true // self-referential update (d = d.next): optimistic
	}
	ow.visiting[obj] = true
	defer delete(ow.visiting, obj)
	for _, s := range srcs {
		if !ow.ownedExpr(s) {
			return false
		}
	}
	return true
}
