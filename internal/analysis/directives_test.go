package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"
)

// TestDirectiveTableCoversEveryVerb parses directives.go and requires a
// table row for every Dir* constant, so a new verb cannot be declared
// without saying where it may sit and which packages may carry it.
func TestDirectiveTableCoversEveryVerb(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "directives.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var verbs []string
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, name := range vs.Names {
				if !strings.HasPrefix(name.Name, "Dir") {
					continue
				}
				v, err := strconv.Unquote(vs.Values[i].(*ast.BasicLit).Value)
				if err != nil {
					t.Fatal(err)
				}
				verbs = append(verbs, v)
				if ruleFor(v) == nil {
					t.Errorf("%s = %q has no row in directiveTable", name.Name, v)
				}
			}
		}
	}
	if len(verbs) != len(directiveTable) {
		t.Errorf("%d Dir* constants, %d table rows", len(verbs), len(directiveTable))
	}
}

// TestWaiverPolicyMatchesCIGreps pins each verb's allowed packages to the
// shell greps the CI waiver step applied before the table existed.
func TestWaiverPolicyMatchesCIGreps(t *testing.T) {
	under := func(pkg, prefix string) bool { return strings.HasPrefix(pkg, prefix) }
	old := map[string]func(pkg string) bool{
		DirAllowWalltime: func(pkg string) bool { return pkg == "nectar/internal/bench" || pkg == "nectar/internal/prof" },
		DirHotpathExempt: func(string) bool { return true },
		DirShardBoundary: func(string) bool { return true },
		DirFreeHop: func(pkg string) bool {
			return under(pkg, "nectar/internal/hw/") || pkg == "nectar/internal/rt/exec"
		},
		DirDiagHelper: func(pkg string) bool { return pkg == "nectar/internal/sim" },
		DirTakesOwner: func(pkg string) bool {
			return under(pkg, "nectar/internal/hw/") || under(pkg, "nectar/internal/proto/")
		},
		DirLeakOK: func(pkg string) bool {
			return under(pkg, "nectar/internal/hw/") || under(pkg, "nectar/internal/proto/")
		},
		// Added with the table: exported API waivers, judged under nectar/internal/ only.
		DirAPI: func(pkg string) bool { return under(pkg, "nectar/internal/") },
	}
	pkgs := []string{
		"nectar", "nectar/cmd/nectar-bench", "nectar/internal/bench", "nectar/internal/bench/sub",
		"nectar/internal/prof", "nectar/internal/hw", "nectar/internal/hw/fiber", "nectar/internal/hw/cab",
		"nectar/internal/rt/exec", "nectar/internal/rt/threads", "nectar/internal/proto", "nectar/internal/proto/ip",
		"nectar/internal/sim", "nectar/internal/sim/sub", "nectar/internal/obs", "nectar/internal/hwx",
	}
	for _, r := range directiveTable {
		want, ok := old[r.verb]
		if ok != r.waiver {
			t.Errorf("%s: waiver = %v, want %v", r.verb, r.waiver, ok)
			continue
		}
		if !r.waiver {
			if r.pkgs != nil {
				t.Errorf("%s: marker with a package list %q", r.verb, r.pkgs)
			}
			continue
		}
		for _, pkg := range pkgs {
			w := Waiver{Package: pkg, Directive: r.verb}
			if got := w.Allowed(); got != want(pkg) {
				t.Errorf("%s in %s: Allowed() = %v, CI grep said %v", r.verb, pkg, got, want(pkg))
			}
		}
	}
}

// TestWaiverOutOfPolicy feeds the -waivers policy check a waiver outside
// its verb's packages and an unknown verb: both must fail it.
func TestWaiverOutOfPolicy(t *testing.T) {
	for _, w := range []Waiver{
		{Package: "nectar/internal/proto/tcp", Directive: DirAllowWalltime, Reason: "times the handshake"},
		{Package: "nectar/internal/proto/ip", Directive: DirFreeHop, Reason: "hides an uncharged send"},
		{Package: "nectar/internal/obs", Directive: DirDiagHelper, Reason: "a second panic surface"},
		{Package: "nectar/internal/sim", Directive: DirLeakOK, Reason: "a suppressed timer leak"},
		{Package: "nectar/internal/bench", Directive: "allow-waltime", Reason: "typo"},
		{Package: "nectar/cmd/nectar-sim", Directive: DirAPI, Reason: "exported API outside nectar/internal/"},
	} {
		if w.Allowed() {
			t.Errorf("%+v passed the waiver policy", w)
		}
	}
	if w := (Waiver{Package: "nectar/internal/bench", Directive: DirAllowWalltime}); !w.Allowed() {
		t.Errorf("%+v failed the waiver policy", w)
	}
}
