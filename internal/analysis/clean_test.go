package analysis_test

import (
	"os"
	"path/filepath"
	"testing"

	"nectar/internal/analysis"
)

// TestRepoLintClean runs the full nectar-vet suite over every package in
// the module and fails on any undirected diagnostic. This makes a
// determinism violation break `go test ./...` locally — not just the CI
// lint job — the moment it is written. It also holds every waiver to the
// directive table's package policy.
//
// The module is loaded and type-checked exactly once (LoadPackages
// shares one types universe across packages and analyzers), and the
// interprocedural analyzers get the same whole-program view the
// standalone nectar-vet binary builds.
func TestRepoLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	root := moduleRoot(t)
	pkgs, err := analysis.LoadPackages(root, "./...")
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loaded no packages")
	}
	prog := analysis.NewProgram(pkgs)
	var total int
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("typecheck %s: %v", pkg.PkgPath, terr)
		}
		diags, err := analysis.RunAnalyzersWith(prog, pkg, analysis.All())
		if err != nil {
			t.Fatalf("%s: %v", pkg.PkgPath, err)
		}
		for _, d := range diags {
			t.Errorf("%s", analysis.FormatDiagnostic(pkg.Fset, d))
			total++
		}
	}
	if total > 0 {
		t.Errorf("nectar-vet: %d diagnostic(s); fix them or annotate with a //nectar: directive (with a reason)", total)
	}
	// The waiver policy nectar-vet -waivers enforces: each escape hatch
	// only in the packages its directive-table row allows.
	for _, w := range analysis.Waivers(pkgs) {
		if !w.Allowed() {
			t.Errorf("%s: //nectar:%s is not allowed in package %s", w.Pos, w.Directive, w.Package)
		}
	}
	t.Logf("nectar-vet clean over %d packages", len(pkgs))
}

// moduleRoot walks up from the test's working directory to go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test directory")
		}
		dir = parent
	}
}
