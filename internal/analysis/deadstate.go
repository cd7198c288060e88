package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"strings"
)

// Deadstate keeps unread state and unused code out of the tree. Within
// one package's non-test files it reports an unexported field of a
// package-level struct type that is written (=, op=, ++/--, a
// composite-literal key) but never read, and an unexported package-level
// func, method, var, const or type that nothing uses. A use from a
// _test.go file does not count: test-only helpers live in the test files
// that call them.
//
// Exempt are blank identifiers, init and main, methods whose name and
// signature match a method of an interface in the package (they are
// reached through it), and the fields of struct types compared as whole
// values (==, !=, switch tags, map keys), which the comparison reads.
//
// The exported half reads the driver's program (the whole module under
// nectar-vet ./... at the root and TestRepoLintClean, one fixture package
// under analysistest.Run): it reports every exported func, method, type,
// var, const and struct field declared under nectar/internal/ that no
// non-test file of the program uses, so test-only API and dead API read
// alike. Exempt are methods matching a method of an interface in the
// program or in a package it imports, and json-tagged fields; API that
// earns its place carries //nectar:api <reason> on its declaration, and
// a waiver on a type covers its methods and fields.
var Deadstate = &Analyzer{
	Name: "deadstate",
	Doc: "unread state and unused code: unexported struct fields that are written but never read, unexported " +
		"package-level funcs, methods, vars, consts and types that non-test code never uses, and, over the whole " +
		"program, exported nectar/internal API that no non-test file uses.",
	Run: runDeadstate,
}

// deadUses is what one walk over a package's non-test files learns.
type deadUses struct {
	info          *types.Info
	written, read map[*types.Var]bool
	used          map[types.Object]bool
	compared      map[*types.Struct]bool
}

func newDeadUses() *deadUses {
	return &deadUses{written: map[*types.Var]bool{}, read: map[*types.Var]bool{},
		used: map[types.Object]bool{}, compared: map[*types.Struct]bool{}}
}

func runDeadstate(pass *Pass) (any, error) {
	for _, d := range pass.Program.deadExported()[canonicalPkgPath(pass.PkgPath)] {
		pass.Report(d)
	}
	info := pass.TypesInfo
	u := newDeadUses()
	u.info = info
	for _, f := range pass.Files {
		if !pass.IsTestFile(f.Pos()) {
			u.walk(f)
		}
	}
	for _, tv := range info.Types {
		if m, ok := tv.Type.Underlying().(*types.Map); ok {
			u.compare(m.Key())
		}
	}

	dead := func(obj types.Object) bool {
		return !obj.Exported() && !u.used[obj] && !pass.IsTestFile(obj.Pos())
	}
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if name != "main" && dead(obj) {
			pass.Reportf(obj.Pos(), "%s %s is never used", objKind(obj), name)
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() || pass.IsTestFile(obj.Pos()) {
			continue
		}
		n := tn.Type().(*types.Named)
		for i := range n.NumMethods() {
			if m := n.Method(i); dead(m) && !u.implementsLocal(m) {
				pass.Reportf(m.Pos(), "method %s.%s is never used", name, m.Name())
			}
		}
		if s, ok := n.Underlying().(*types.Struct); ok && !u.compared[s] {
			for i := range s.NumFields() {
				if f := s.Field(i); !f.Exported() && u.written[f] && !u.read[f] {
					pass.Reportf(f.Pos(), "field %s.%s is written but never read", name, f.Name())
				}
			}
		}
	}
	return nil, nil
}

// walk records every field write and read and every other object use in
// f. A method's receiver list and a function's own recursive calls do
// not count as uses.
func (u *deadUses) walk(f *ast.File) {
	writes := map[*ast.Ident]bool{} // field idents in write position
	target := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			writes[sel.Sel] = true
		}
	}
	for _, decl := range f.Decls {
		var self types.Object
		nodes := []ast.Node{decl}
		if fd, ok := decl.(*ast.FuncDecl); ok {
			self, nodes = u.info.Defs[fd.Name], []ast.Node{fd.Type}
			if fd.Body != nil {
				nodes = append(nodes, fd.Body)
			}
		}
		for _, root := range nodes {
			// A write is recorded on the way down, before the selector
			// it names is visited.
			ast.Inspect(root, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if n.Tok != token.DEFINE {
						for _, l := range n.Lhs {
							target(l)
						}
					}
				case *ast.IncDecStmt:
					target(n.X)
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						writes[id] = true // a struct literal's field key
					}
				case *ast.BinaryExpr:
					if n.Op == token.EQL || n.Op == token.NEQ {
						u.compare(u.info.TypeOf(n.X))
					}
				case *ast.SwitchStmt:
					if n.Tag != nil {
						u.compare(u.info.TypeOf(n.Tag))
					}
				case *ast.Ident:
					u.use(n, self, writes[n])
				}
				return true
			})
		}
	}
}

// use records one identifier: a field is written or read, and any other
// object but self is used.
func (u *deadUses) use(id *ast.Ident, self types.Object, write bool) {
	switch obj := u.info.Uses[id].(type) {
	case nil:
	case *types.Var:
		if !obj.IsField() {
			u.used[obj] = true
		} else if write {
			u.written[obj.Origin()] = true
		} else {
			u.read[obj.Origin()] = true
		}
	case *types.Func:
		if obj.Origin() != self {
			u.used[obj.Origin()] = true
		}
	default:
		u.used[obj] = true
	}
}

// compare records that values of t are compared whole, so the fields of
// every struct in t, nested by value, are read.
func (u *deadUses) compare(t types.Type) {
	if n, ok := t.(*types.Named); ok {
		t = n.Origin()
	}
	if t == nil {
		return
	}
	switch s := t.Underlying().(type) {
	case *types.Struct:
		if !u.compared[s] {
			u.compared[s] = true
			for i := range s.NumFields() {
				u.compare(s.Field(i).Type())
			}
		}
	case *types.Array:
		u.compare(s.Elem())
	}
}

// objKind names the kind of a package-level object.
func objKind(obj types.Object) string {
	switch obj.(type) {
	case *types.Func:
		return "func"
	case *types.Var:
		return "var"
	case *types.Const:
		return "const"
	}
	return "type"
}

// implementsLocal reports whether an interface in the package has a
// method with fn's name and signature; an unexported method satisfies no
// other package's interface.
func (u *deadUses) implementsLocal(fn *types.Func) bool {
	for _, tv := range u.info.Types {
		if iface, ok := tv.Type.Underlying().(*types.Interface); ok {
			for i := range iface.NumMethods() {
				if m := iface.Method(i); m.Name() == fn.Name() && types.Identical(m.Type(), fn.Type()) {
					return true
				}
			}
		}
	}
	return false
}

// deadExported computes the exported half once per program: the findings
// per package path.
func (prog *Program) deadExported() map[string][]Diagnostic {
	if prog.deadDiags != nil {
		return prog.deadDiags
	}
	prog.deadDiags = map[string][]Diagnostic{}
	u := newDeadUses()
	ifaces := map[string][]*types.Signature{} // interface method name -> signatures
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := range it.NumMethods() {
				m := it.Method(i)
				ifaces[m.Name()] = append(ifaces[m.Name()], m.Signature())
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var addPkg func(p *types.Package)
	addPkg = func(p *types.Package) {
		if p == nil || seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			addPkg(imp)
		}
	}
	for _, pkg := range prog.Packages {
		addPkg(pkg.Types)
		for _, tv := range pkg.TypesInfo.Types {
			addIface(tv.Type)
		}
		u.info = pkg.TypesInfo
		for _, f := range pkg.Files {
			if !strings.HasSuffix(pkg.Fset.Position(f.Pos()).Filename, "_test.go") {
				u.walk(f)
			}
		}
	}
	implements := func(fn *types.Func) bool {
		for _, sig := range ifaces[fn.Name()] {
			if types.Identical(sig, fn.Type()) {
				return true
			}
		}
		return false
	}

	for _, pkg := range prog.Packages {
		path := canonicalPkgPath(pkg.PkgPath)
		if !strings.HasPrefix(path, "nectar/internal/") || pkg.Types == nil {
			continue
		}
		waived := apiWaivers(pkg)
		test := func(obj types.Object) bool {
			return strings.HasSuffix(pkg.Fset.Position(obj.Pos()).Filename, "_test.go")
		}
		report := func(obj types.Object, what string) {
			if obj.Exported() && !u.used[obj] && !waived[obj.Pos()] && !test(obj) {
				prog.deadDiags[path] = append(prog.deadDiags[path], Diagnostic{Pos: obj.Pos(),
					Message: fmt.Sprintf("exported %s has no non-test use; delete it or waive it with //nectar:%s <reason>", what, DirAPI)})
			}
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			report(obj, objKind(obj)+" "+name)
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() || waived[tn.Pos()] || test(tn) {
				continue
			}
			n := tn.Type().(*types.Named)
			for i := range n.NumMethods() {
				if m := n.Method(i); !implements(m) {
					report(m, "method "+name+"."+m.Name())
				}
			}
			if s, ok := n.Underlying().(*types.Struct); ok {
				for i := range s.NumFields() {
					f := s.Field(i)
					if !f.Embedded() && reflect.StructTag(s.Tag(i)).Get("json") == "" && !u.written[f] && !u.read[f] {
						report(f, "field "+name+"."+f.Name())
					}
				}
			}
		}
	}
	return prog.deadDiags
}

// apiWaivers returns the positions of the names whose declaration carries
// //nectar:api with a reason: a func, a type, var or const spec or a whole
// declaration group, a struct field (doc or line comment). deadExported
// skips the methods and fields of a waived type.
func apiWaivers(pkg *Package) map[token.Pos]bool {
	waived := map[token.Pos]bool{}
	has := func(cgs ...*ast.CommentGroup) bool {
		for _, cg := range cgs {
			if cg == nil {
				continue
			}
			for _, c := range cg.List {
				if d, ok := parseDirective(pkg.Fset, c); ok && d.verb == DirAPI && d.arg != "" {
					return true
				}
			}
		}
		return false
	}
	waive := func(ids ...*ast.Ident) {
		for _, id := range ids {
			waived[id.Pos()] = true
		}
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if has(n.Doc) {
					waive(n.Name)
				}
				return false
			case *ast.GenDecl:
				group := has(n.Doc)
				for _, spec := range n.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						if group || has(spec.Doc) {
							waive(spec.Name)
						}
					case *ast.ValueSpec:
						if group || has(spec.Doc, spec.Comment) {
							waive(spec.Names...)
						}
					}
				}
			case *ast.Field:
				if has(n.Doc, n.Comment) {
					waive(n.Names...)
				}
			}
			return true
		})
	}
	return waived
}
