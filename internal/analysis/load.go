package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"sort"
)

// Package loading for the standalone driver and the repo-wide regression
// test. The driver deliberately depends only on the standard library:
// package metadata comes from `go list -json`, syntax from go/parser,
// and types from go/types. Module packages are type-checked exactly once,
// in dependency order, and the results are shared: when package B imports
// module package A, B's type checker is handed the *types.Package we
// already produced for A rather than a fresh source-importer re-load.
// Besides the obvious speedup (the module used to be type-checked twice —
// once directly and once inside the importer's cache), this gives the
// whole load a single types universe, which the interprocedural analyzers
// (callgraph.go) rely on: a *types.Func observed at a call site in B is
// pointer-identical to the one defined in A. Only the standard library
// still goes through the source importer (one shared, caching instance).

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	PkgPath   string
	Dir       string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
	// TypeErrors holds type-checker soft failures; analyzers still run
	// (their type lookups degrade gracefully), but drivers surface them.
	TypeErrors []error
}

// listedPackage is the subset of `go list -json` output we consume.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Imports    []string
	Standard   bool
}

// goList runs `go list -json patterns...` in dir and decodes the stream.
func goList(dir string, patterns []string) ([]listedPackage, error) {
	args := append([]string{"list", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}
	var out []listedPackage
	dec := json.NewDecoder(&stdout)
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list -json decode: %v", err)
		}
		out = append(out, p)
	}
	return out, nil
}

// newTypesInfo allocates the types.Info maps the analyzers consume.
func newTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

// TypecheckFiles parses and type-checks one package's files with imp
// resolving imports. Soft type errors are collected, not fatal. Both
// LoadPackages and the analysistest fixture loader check packages
// through it.
func TypecheckFiles(fset *token.FileSet, pkgPath string, filenames []string, imp types.Importer) (*Package, error) {
	files := make([]*ast.File, 0, len(filenames))
	for _, fn := range filenames {
		f, err := parser.ParseFile(fset, fn, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %v", fn, err)
		}
		files = append(files, f)
	}
	pkg := &Package{PkgPath: pkgPath, Fset: fset, Files: files, TypesInfo: newTypesInfo()}
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, _ := conf.Check(canonicalPkgPath(pkgPath), fset, files, pkg.TypesInfo)
	pkg.Types = tpkg
	return pkg, nil
}

// LoadPackages loads the packages matching patterns (relative to dir)
// with full syntax and types. Test files and test-only packages are
// excluded — the determinism analyzers exempt them by design, and the
// non-test compilation covers every file the contract applies to.
//
// Packages are type-checked in dependency order with a shared package
// map, so each module package is checked exactly once and cross-package
// references share one types universe (see the package comment above).
func LoadPackages(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	byPath := make(map[string]listedPackage, len(listed))
	var paths []string
	for _, lp := range listed {
		if lp.Standard || len(lp.GoFiles) == 0 {
			continue
		}
		byPath[lp.ImportPath] = lp
		paths = append(paths, lp.ImportPath)
	}
	sort.Strings(paths)
	order := topoOrder(paths, byPath)

	fset := token.NewFileSet()
	imp := &moduleImporter{
		shared:   make(map[string]*types.Package, len(order)),
		fallback: importer.ForCompiler(fset, "source", nil),
		dir:      dir,
	}
	var out []*Package
	for _, path := range order {
		lp := byPath[path]
		filenames := make([]string, len(lp.GoFiles))
		for i, f := range lp.GoFiles {
			filenames[i] = filepath.Join(lp.Dir, f)
		}
		pkg, err := TypecheckFiles(fset, lp.ImportPath, filenames, imp)
		if err != nil {
			return nil, err
		}
		pkg.Dir = lp.Dir
		if pkg.Types != nil {
			imp.shared[canonicalPkgPath(lp.ImportPath)] = pkg.Types
		}
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PkgPath < out[j].PkgPath })
	return out, nil
}

// topoOrder sorts paths so every package follows the packages it imports
// (restricted to the loaded set). Cycles are impossible in valid Go; a
// malformed input degrades to the insertion order of the residue.
func topoOrder(paths []string, byPath map[string]listedPackage) []string {
	order := make([]string, 0, len(paths))
	state := make(map[string]int, len(paths)) // 0 unvisited, 1 visiting, 2 done
	var visit func(path string)
	visit = func(path string) {
		if state[path] != 0 {
			return
		}
		state[path] = 1
		for _, imp := range byPath[path].Imports {
			if _, ok := byPath[imp]; ok {
				visit(imp)
			}
		}
		state[path] = 2
		order = append(order, path)
	}
	for _, p := range paths {
		visit(p)
	}
	return order
}

// moduleImporter resolves imports of already-checked module packages from
// the shared map and everything else (the standard library) through the
// caching source importer.
type moduleImporter struct {
	shared   map[string]*types.Package
	fallback types.Importer
	dir      string
}

func (mi *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := mi.shared[path]; ok {
		return p, nil
	}
	if from, ok := mi.fallback.(types.ImporterFrom); ok {
		return from.ImportFrom(path, mi.dir, 0)
	}
	return mi.fallback.Import(path)
}

// RunAnalyzersWith applies each analyzer to pkg and returns the
// diagnostics in (analyzer, position) order. prog supplies cross-package
// syntax and facts to the interprocedural analyzers (hotpath, shardsafe,
// costmodel, poollife, deadstate's exported half); a nil prog gives them
// a single-package view of pkg.
func RunAnalyzersWith(prog *Program, pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			PkgPath:   pkg.PkgPath,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			Program:   prog,
		}
		name := a.Name
		pass.Report = func(d Diagnostic) {
			d.Analyzer = name
			diags = append(diags, d)
		}
		if _, err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %v", pkg.PkgPath, a.Name, err)
		}
	}
	sortDiagnostics(diags)
	return diags, nil
}

// sortDiagnostics orders findings (analyzer, position) — the stable
// reporting order both driver modes use.
func sortDiagnostics(diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		if diags[i].Analyzer != diags[j].Analyzer {
			return diags[i].Analyzer < diags[j].Analyzer
		}
		return diags[i].Pos < diags[j].Pos
	})
}

// FormatDiagnostic renders d as file:line:col: analyzer: message.
func FormatDiagnostic(fset *token.FileSet, d Diagnostic) string {
	return fmt.Sprintf("%s: %s: %s", fset.Position(d.Pos), d.Analyzer, d.Message)
}

// JSONDiagnostic is the machine-readable form of one finding, emitted by
// nectar-vet -json as one JSON object per line so CI can annotate PRs.
type JSONDiagnostic struct {
	Pos      string   `json:"pos"` // file:line:col
	Analyzer string   `json:"analyzer"`
	Message  string   `json:"message"`
	Chain    []string `json:"chain,omitempty"` // hotpath call chain, root first
}

// JSONLine renders d as its one-line JSON form (no trailing newline).
func JSONLine(fset *token.FileSet, d Diagnostic) string {
	jd := JSONDiagnostic{
		Pos:      fset.Position(d.Pos).String(),
		Analyzer: d.Analyzer,
		Message:  d.Message,
		Chain:    d.Chain,
	}
	b, err := json.Marshal(jd)
	if err != nil { // unreachable: JSONDiagnostic has no unmarshalable fields
		panic(err)
	}
	return string(b)
}
