package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// Call-graph edge cases the analyzer fixtures do not isolate: method
// values, interface dispatch through embedded types, and function values
// escaping into variables, struct fields, and composite literals (the
// EdgeValue shapes costmodel and hotpath traverse).

// progFromSource type-checks one dependency-free source file and builds
// its call graph.
func progFromSource(t *testing.T, src string) *Program {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "cg.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	pkg := &Package{PkgPath: "cgtest", Fset: fset, Files: []*ast.File{f}, TypesInfo: newTypesInfo()}
	conf := types.Config{Error: func(error) {}}
	tpkg, _ := conf.Check("cgtest", fset, pkg.Files, pkg.TypesInfo)
	pkg.Types = tpkg
	prog := NewProgram([]*Package{pkg})
	prog.ensureGraph()
	return prog
}

// nodeBySuffix finds the unique function node whose ID ends in suffix.
func nodeBySuffix(t *testing.T, prog *Program, suffix string) *FuncNode {
	t.Helper()
	var found *FuncNode
	for _, n := range prog.nodes {
		if strings.HasSuffix(n.ID, suffix) {
			if found != nil {
				t.Fatalf("suffix %q is ambiguous: %s and %s", suffix, found.ID, n.ID)
			}
			found = n
		}
	}
	if found == nil {
		t.Fatalf("no node with suffix %q; have %v", suffix, nodeIDs(prog))
	}
	return found
}

func nodeIDs(prog *Program) []string {
	ids := make([]string, len(prog.nodes))
	for i, n := range prog.nodes {
		ids[i] = n.ID
	}
	return ids
}

// hasEdge reports whether from has an edge of the given kind to a callee
// whose ID ends in calleeSuffix.
func hasEdge(from *FuncNode, kind EdgeKind, calleeSuffix string) bool {
	for _, e := range from.Edges {
		if e.Kind == kind && strings.HasSuffix(e.Callee.ID, calleeSuffix) {
			return true
		}
	}
	return false
}

func TestCallgraphMethodValues(t *testing.T) {
	prog := progFromSource(t, `package cgtest

type counter struct{ n int }

func (c *counter) bump() { c.n++ }

func run(fn func()) { fn() }

func passesMethodValue(c *counter) {
	run(c.bump) // method value as call argument
}

func storesMethodValue(c *counter) {
	later := c.bump // method value into a variable
	_ = later
}
`)
	arg := nodeBySuffix(t, prog, ".passesMethodValue")
	if !hasEdge(arg, EdgeValue, ".bump") {
		t.Errorf("passesMethodValue: no EdgeValue to (*counter).bump; edges %v", edgeSummary(arg))
	}
	stored := nodeBySuffix(t, prog, ".storesMethodValue")
	if !hasEdge(stored, EdgeValue, ".bump") {
		t.Errorf("storesMethodValue: no EdgeValue to (*counter).bump; edges %v", edgeSummary(stored))
	}
}

func TestCallgraphEmbeddedInterface(t *testing.T) {
	prog := progFromSource(t, `package cgtest

type base struct{}

func (b *base) Handle() {}

// wrapper implements handler only through the embedded *base.
type wrapper struct{ *base }

type handler interface{ Handle() }

func dispatch(h handler) { h.Handle() }

func promoted(w *wrapper) { w.Handle() }

func useWrapper(w *wrapper) { dispatch(w) }
`)
	// Interface dispatch resolves to the embedded type's declaration.
	disp := nodeBySuffix(t, prog, ".dispatch")
	if !hasEdge(disp, EdgeIface, ".Handle") {
		t.Errorf("dispatch: no EdgeIface to (*base).Handle; edges %v", edgeSummary(disp))
	}
	// A promoted call on the concrete wrapper is a static call to the
	// embedded type's method.
	prom := nodeBySuffix(t, prog, ".promoted")
	if !hasEdge(prom, EdgeCall, ".Handle") {
		t.Errorf("promoted: no EdgeCall to (*base).Handle; edges %v", edgeSummary(prom))
	}
}

func TestCallgraphStructFieldFuncValues(t *testing.T) {
	prog := progFromSource(t, `package cgtest

type table struct {
	fn  func()
	sub []func()
}

func target() {}

func storeField(tb *table) {
	tb.fn = target // function value into a struct field
}

func seedLiteral() table {
	return table{fn: target} // function value through a composite literal
}

func seedSlice() []func() {
	return []func(){target} // function value through a slice literal
}

func declareVar() {
	var fn func() = target // function value through a var declaration
	_ = fn
}

func readField(tb *table) {
	tb.fn() // calling through a field is NOT an edge: the stores above own it
}
`)
	for _, name := range []string{".storeField", ".seedLiteral", ".seedSlice", ".declareVar"} {
		n := nodeBySuffix(t, prog, name)
		if !hasEdge(n, EdgeValue, ".target") {
			t.Errorf("%s: no EdgeValue to cgtest.target; edges %v", name, edgeSummary(n))
		}
	}
	// The field-call site itself contributes no edge (by design: the
	// value edges above already attribute the target to its creator).
	rd := nodeBySuffix(t, prog, ".readField")
	if len(rd.Edges) != 0 {
		t.Errorf("readField: expected no edges, got %v", edgeSummary(rd))
	}
}

func edgeSummary(n *FuncNode) []string {
	var out []string
	for _, e := range n.Edges {
		out = append(out, e.Kind.String()+" "+e.Callee.ID)
	}
	return out
}
