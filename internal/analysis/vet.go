package analysis

import (
	"encoding/json"
	"fmt"
	"go/token"
	"os"
	"strings"
	"time"
)

// Driver entry point for cmd/nectar-vet: `nectar-vet ./...` loads the
// named packages itself (LoadPackages) into one types universe, so the
// interprocedural analyzers (hotpath, shardsafe, costmodel, poollife)
// see the full cross-package call graph and fact set. This is the mode
// CI, the perf-module job, and the repo-wide regression test run.
//
// -json emits diagnostics on stdout as one JSON object per line
// ({"pos","analyzer","message","chain"}), the form CI ingests to
// annotate PRs.

// Main is the nectar-vet entry point. It returns the process exit code:
// 0 clean, 1 driver error, 2 diagnostics reported (or, with -waivers, a
// waiver outside its verb's packages).
func Main(args []string) int {
	jsonOut := false
	waivers := false
	timing := false
	rest := args[:0:0]
	for _, a := range args {
		switch a {
		case "-json", "--json", "-json=true", "--json=true":
			jsonOut = true
		case "-json=false", "--json=false":
			jsonOut = false
		case "-waivers", "--waivers":
			waivers = true
		case "-timing", "--timing":
			timing = true
		default:
			rest = append(rest, a)
		}
	}
	if waivers {
		return waiverInventory(rest)
	}
	return standalone(rest, jsonOut, timing)
}

// Waiver is one escape-hatch directive in the inventory nectar-vet
// -waivers emits: every //nectar: annotation that suppresses or scopes a
// check, with its justification. CI diffs this inventory so a new waiver
// is an explicit, reviewed event rather than a silent suppression.
type Waiver struct {
	Pos       string `json:"pos"` // file:line:col
	Package   string `json:"package"`
	Directive string `json:"directive"`
	Reason    string `json:"reason"`
}

// Allowed reports whether the waiver sits in a package its verb's row in
// the directive table permits.
func (w Waiver) Allowed() bool {
	r := ruleFor(w.Directive)
	return r != nil && r.allows(w.Package)
}

// Waivers returns every waiver directive in pkgs, in (package, file,
// line) order. Pure markers (hotpath, shard-owned) opt code into
// checking and are excluded.
func Waivers(pkgs []*Package) []Waiver {
	var out []Waiver
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					d, ok := parseDirective(pkg.Fset, c)
					if r := ruleFor(d.verb); !ok || r == nil || !r.waiver {
						continue
					}
					out = append(out, Waiver{
						Pos:       pkg.Fset.Position(d.pos).String(),
						Package:   canonicalPkgPath(pkg.PkgPath),
						Directive: d.verb,
						Reason:    d.arg,
					})
				}
			}
		}
	}
	return out
}

// waiverInventory loads patterns (default ./...) and prints every waiver
// as one JSON line on stdout. Judging a waiver's reason is the
// reviewer's job, but its package is policy: a waiver outside the
// packages its verb allows is reported on stderr and exits 2.
func waiverInventory(patterns []string) int {
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "nectar-vet:", err)
		return 1
	}
	pkgs, err := LoadPackages(wd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nectar-vet:", err)
		return 1
	}
	exit := 0
	for _, w := range Waivers(pkgs) {
		b, err := json.Marshal(w)
		if err != nil { // unreachable: Waiver is all strings
			panic(err)
		}
		fmt.Println(string(b))
		if !w.Allowed() {
			fmt.Fprintf(os.Stderr, "nectar-vet: %s: //nectar:%s is not allowed in package %s (allowed: %s)\n",
				w.Pos, w.Directive, w.Package, strings.Join(ruleFor(w.Directive).pkgs, " "))
			exit = 2
		}
	}
	return exit
}

// emit writes one diagnostic in the selected format: human-readable on
// stderr, or a JSON line on stdout with -json.
func emit(fset *token.FileSet, d Diagnostic, jsonOut bool) {
	if jsonOut {
		fmt.Println(JSONLine(fset, d))
	} else {
		fmt.Fprintln(os.Stderr, FormatDiagnostic(fset, d))
	}
}

// VetTiming is the wall-clock profile nectar-vet -timing emits as the
// last stdout line: one JSON object CI stores in the findings artifact
// and gates against the analysis-perf budget, so a quadratic blow-up in
// the dataflow or call-graph layers fails the lint job instead of
// silently stretching it.
type VetTiming struct {
	TotalMs     float64            `json:"total_ms"`     // load + analyze
	LoadMs      float64            `json:"load_ms"`      // parse + typecheck
	Packages    int                `json:"packages"`     // units analyzed
	AnalyzersMs map[string]float64 `json:"analyzers_ms"` // per-analyzer, summed over packages
}

// standalone loads patterns (default ./...) and reports all findings.
// With timing, the wall-clock profile is printed as a final JSON line on
// stdout. The first analyzer to need a lazily-built structure (the call
// graph, the hot/cost fixpoints) pays its construction inside its own
// bucket — coarse, but stable enough for a CI budget.
func standalone(patterns []string, jsonOut, timing bool) int {
	start := time.Now()
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "nectar-vet:", err)
		return 1
	}
	pkgs, err := LoadPackages(wd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nectar-vet:", err)
		return 1
	}
	loadDur := time.Since(start)
	perAnalyzer := make(map[string]time.Duration)
	prog := NewProgram(pkgs)
	exit := 0
	for _, pkg := range pkgs {
		for _, te := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "nectar-vet: typecheck %s: %v\n", pkg.PkgPath, te)
			exit = 1
		}
		var diags []Diagnostic
		for _, a := range All() {
			aStart := time.Now()
			ds, err := RunAnalyzersWith(prog, pkg, []*Analyzer{a})
			perAnalyzer[a.Name] += time.Since(aStart)
			if err != nil {
				fmt.Fprintln(os.Stderr, "nectar-vet:", err)
				return 1
			}
			diags = append(diags, ds...)
		}
		sortDiagnostics(diags)
		for _, d := range diags {
			emit(pkg.Fset, d, jsonOut)
			exit = 2
		}
	}
	if timing {
		t := VetTiming{
			TotalMs:     float64(time.Since(start).Microseconds()) / 1e3,
			LoadMs:      float64(loadDur.Microseconds()) / 1e3,
			Packages:    len(pkgs),
			AnalyzersMs: make(map[string]float64, len(perAnalyzer)),
		}
		for name, d := range perAnalyzer {
			t.AnalyzersMs[name] = float64(d.Microseconds()) / 1e3
		}
		b, err := json.Marshal(struct {
			Timing VetTiming `json:"timing"`
		}{t})
		if err != nil { // unreachable: VetTiming is numbers and strings
			panic(err)
		}
		fmt.Println(string(b))
	}
	return exit
}
