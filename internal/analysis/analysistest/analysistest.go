// Package analysistest runs an analyzer over packages rooted at a
// testdata/src tree and checks its diagnostics against // want
// expectations, mirroring golang.org/x/tools/go/analysis/analysistest on
// the standard library only.
//
// Layout: testdata/src/<import/path>/*.go defines package <import/path>.
// Imports between testdata packages resolve inside the tree first; any
// other import (the standard library, real nectar/internal/... packages)
// falls back to the module-aware source importer, so fixtures can
// exercise analyzers against the real internal/obs and internal/sim
// types.
//
// Expectations are comments anchored to the line the diagnostic lands
// on:
//
//	time.Now() // want `wall-clock time\.Now`
//
// Each expectation is a Go string literal (quoted or backquoted) holding
// a regexp; several literals on one line expect several diagnostics.
// Because a //-comment swallows the rest of its line, fixtures that
// expect a diagnostic *on a directive comment itself* put the
// expectation in a block comment before it:
//
//	/* want `requires a reason` */ //nectar:allow-walltime
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"nectar/internal/analysis"
)

// TestData returns the absolute path of the calling test's testdata
// directory.
//
//nectar:api the analyzer fixtures' harness, called from the analyzers' _test.go files
func TestData() string {
	p, err := filepath.Abs("testdata")
	if err != nil {
		panic(err)
	}
	return p
}

// TB is the testing surface Run needs. It is satisfied by *testing.T;
// the harness's own tests substitute a recorder to assert which
// mismatches Run reports.
type TB interface {
	Helper()
	Errorf(format string, args ...any)
	Fatalf(format string, args ...any)
}

// Loaders are shared across every Run call in the process, keyed by
// testdata root: the standard library and any real module packages a
// fixture imports (internal/sim, internal/obs) are parsed and
// type-checked once for the whole test suite instead of once per
// analyzer test. Fixture packages are immutable for the life of a test
// binary, so the cache needs no invalidation.
var (
	loadersMu sync.Mutex
	loaders   = make(map[string]*loader)
)

func sharedLoader(root string) *loader {
	loadersMu.Lock()
	defer loadersMu.Unlock()
	ld, ok := loaders[root]
	if !ok {
		ld = &loader{
			fset:  token.NewFileSet(),
			root:  root,
			cache: make(map[string]*analysis.Package),
		}
		ld.fallback = importer.ForCompiler(ld.fset, "source", nil)
		loaders[root] = ld
	}
	return ld
}

// Run loads each package dir testdata/src/<path>, applies a to it, and
// reports mismatches between diagnostics and // want expectations.
//
//nectar:api the analyzer fixtures' harness, called from the analyzers' _test.go files
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	run(t, testdata, a, pkgPaths...)
}

// RunProgram is Run with the whole-program view nectar-vet ./... gives
// the analyzers: the packages are loaded into one Program, and each is
// analyzed with it and checked against its own expectations.
//
//nectar:api the analyzer fixtures' harness, called from the analyzers' _test.go files
func RunProgram(t *testing.T, testdata string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	ld := sharedLoader(filepath.Join(testdata, "src"))
	pkgs := make([]*analysis.Package, len(pkgPaths))
	for i, path := range pkgPaths {
		pkgs[i] = ld.mustLoad(t, path)
	}
	prog := analysis.NewProgram(pkgs)
	for _, pkg := range pkgs {
		check(t, ld, a, pkg, prog)
	}
}

// run is Run behind the TB seam (so the harness can test itself). Each
// package is a program of its own.
func run(t TB, testdata string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	ld := sharedLoader(filepath.Join(testdata, "src"))
	for _, path := range pkgPaths {
		pkg := ld.mustLoad(t, path)
		check(t, ld, a, pkg, analysis.NewProgram([]*analysis.Package{pkg}))
	}
}

// mustLoad loads pkgPath, failing t on a load error and reporting its
// type errors.
func (ld *loader) mustLoad(t TB, pkgPath string) *analysis.Package {
	t.Helper()
	pkg, err := ld.load(pkgPath)
	if err != nil {
		t.Fatalf("%s: %v", pkgPath, err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Errorf("%s: typecheck: %v", pkgPath, terr)
	}
	return pkg
}

// check applies a to pkg in program prog and reports mismatches with
// pkg's // want expectations.
func check(t TB, ld *loader, a *analysis.Analyzer, pkg *analysis.Package, prog *analysis.Program) {
	t.Helper()
	diags, err := analysis.RunAnalyzersWith(prog, pkg, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("%v", err)
	}

	expects := collectExpectations(t, ld.fset, pkg.Files)
	for _, d := range diags {
		pos := ld.fset.Position(d.Pos)
		key := lineKey{filepath.Base(pos.Filename), pos.Line}
		matched := false
		for _, e := range expects[key] {
			if !e.matched && e.re.MatchString(d.Message) {
				e.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s: %s", a.Name, pos, d.Message)
		}
	}
	keys := make([]lineKey, 0, len(expects))
	for k := range expects {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, k := range keys {
		for _, e := range expects[k] {
			if !e.matched {
				t.Errorf("%s: %s:%d: expected diagnostic matching %q, got none", a.Name, k.file, k.line, e.re)
			}
		}
	}
}

type lineKey struct {
	file string
	line int
}

type expectation struct {
	re      *regexp.Regexp
	matched bool
}

// wantLiteral matches one Go string literal (interpreted or raw).
var wantLiteral = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// collectExpectations scans every comment for the `want` marker.
func collectExpectations(t TB, fset *token.FileSet, files []*ast.File) map[lineKey][]*expectation {
	t.Helper()
	out := make(map[lineKey][]*expectation)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if strings.HasPrefix(c.Text, "/*") {
					text = strings.TrimSpace(strings.TrimSuffix(strings.TrimPrefix(c.Text, "/*"), "*/"))
				}
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				key := lineKey{filepath.Base(pos.Filename), pos.Line}
				lits := wantLiteral.FindAllString(rest, -1)
				if len(lits) == 0 {
					t.Fatalf("%s: malformed want comment (no string literals): %s", pos, c.Text)
				}
				for _, lit := range lits {
					var pat string
					if lit[0] == '`' {
						pat = lit[1 : len(lit)-1]
					} else {
						var err error
						pat, err = strconv.Unquote(lit)
						if err != nil {
							t.Fatalf("%s: bad want literal %s: %v", pos, lit, err)
						}
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
					}
					out[key] = append(out[key], &expectation{re: re})
				}
			}
		}
	}
	return out
}

// --- testdata package loading ---

type loader struct {
	fset     *token.FileSet
	root     string // testdata/src
	cache    map[string]*analysis.Package
	fallback types.Importer
}

// load parses and type-checks testdata package path (dir root/<path>).
func (ld *loader) load(path string) (*analysis.Package, error) {
	if pkg, ok := ld.cache[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(ld.root, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var filenames []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			filenames = append(filenames, filepath.Join(dir, e.Name()))
		}
	}
	if len(filenames) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	pkg, err := analysis.TypecheckFiles(ld.fset, path, filenames, (*testdataImporter)(ld))
	if err != nil {
		return nil, err
	}
	ld.cache[path] = pkg
	return pkg, nil
}

// testdataImporter resolves imports inside testdata/src first, then
// falls back to the module-aware source importer.
type testdataImporter loader

func (ti *testdataImporter) Import(path string) (*types.Package, error) {
	ld := (*loader)(ti)
	if hasGoFiles(filepath.Join(ld.root, filepath.FromSlash(path))) {
		pkg, err := ld.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	if from, ok := ld.fallback.(types.ImporterFrom); ok {
		return from.ImportFrom(path, ld.root, 0)
	}
	return ld.fallback.Import(path)
}

// hasGoFiles reports whether dir exists and directly contains a .go
// file. Intermediate fixture directories (e.g. testdata/src/nectar/
// internal/sim holding only subpackages) must not shadow the real
// module package of the same import path.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}
