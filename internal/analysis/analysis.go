// Package analysis implements nectar-vet: a suite of static analyzers
// that mechanically enforce the repo's determinism and hot-path
// invariants. The headline guarantees — byte-identical sharded vs.
// sequential runs, zero-alloc fast paths, and virtual-time-only
// scheduling faithful to the CAB's explicit cost model — were previously
// enforced only by tests that happened to exercise the offending code;
// one stray time.Now, an unsorted map iteration into a trace, or a raw
// go statement silently breaks reproducibility of Figures 6–8. These
// analyzers turn the conventions into checked rules.
//
// The eight analyzers are:
//
//	determinism — the reproducibility contract, one walk per file over a
//	             rule table: in deterministic packages no wall-clock time
//	             (//nectar:allow-walltime <reason> escapes measurement
//	             code), no global math/rand state, and failures only
//	             through Kernel.Fatalf or sim.Panicf (//nectar:diag-helper
//	             <reason> marks the sanctioned surfaces); in every package
//	             no go statements outside the approved concurrency
//	             surfaces and no trace/metric/capture/outbox emission
//	             inside a range over a map. It also runs the //nectar:
//	             directive hygiene-and-placement pass (directives.go).
//	hotpath    — functions annotated //nectar:hotpath, and every function
//	             reachable from them through the call graph
//	             (callgraph.go), must avoid obvious allocation sources
//	             (Sprintf/Markf, unsized append, value-to-interface
//	             conversion, capturing closures); reached functions'
//	             diagnostics print the offending call chain, and
//	             //nectar:hotpath-exempt <reason> prunes the walk.
//	shardsafe  — static race detector for the PDES coupling model:
//	             state annotated //nectar:shard-owned may only be reached
//	             through a receiver/parameter ownership chain; audited
//	             cross-domain surfaces carry //nectar:shard-boundary.
//	unitsafe   — virtual-time unit hygiene in deterministic packages: no
//	             time.Duration<->sim unit conversions, no raw numeric
//	             literals where sim.Duration/sim.Time is expected, and no
//	             unit-dropping numeric casts outside package sim.
//	obsgate    — zero-cost observability, proven by dataflow (cfg.go,
//	             dataflow.go): every obs trace/capture emission whose
//	             arguments allocate or format must be dominated by the
//	             matching enabled-guard branch, including allocations
//	             escaping through locals; metric emissions must not take
//	             allocating arguments at all.
//	costmodel  — latency-model soundness, proven on the call graph: every
//	             path from protocol/datalink code to a fiber/VME transmit
//	             must charge a model.CostModel latency before the
//	             transmit; //nectar:free-hop <reason> waives audited pure
//	             forwarding steps.
//	poollife   — pooled-object lifecycle proofs, via the dataflow
//	             solver run backward (dataflow.go): every value acquired from
//	             a pool surface (FreeList.Get, fiber.Pool frames/packets,
//	             cab receive descriptors, ip header/span buffers, sim
//	             timers) must reach a release or an explicit ownership
//	             transfer on every path; flags leaks, discarded acquires,
//	             double-releases, and use-after-release.
//	             //nectar:takes-ownership <param> <reason> moves the
//	             obligation into a callee; //nectar:leak-ok <reason>
//	             waives a deliberate sink.
//	deadstate  — unread state and unused code: within one package's
//	             non-test files, no unexported struct field is written
//	             but never read, and no unexported package-level func,
//	             method, var, const or type goes unused; with the
//	             whole-program view, no exported nectar/internal/ name
//	             lacks a non-test use unless //nectar:api <reason> keeps it.
//
// The types below mirror the golang.org/x/tools/go/analysis API
// (Analyzer, Pass, Diagnostic) so the analyzers read idiomatically and
// could be rehosted on the upstream driver verbatim; the one driver
// (load.go, vet.go) loads the whole module into a single types universe
// and is implemented on the standard library only, because this module
// deliberately has no external dependencies.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and CLI flags.
	Name string
	// Doc is a one-paragraph description of what the analyzer checks.
	Doc string
	// Run applies the analyzer to one package, reporting findings via
	// pass.Report. The returned value is unused (kept for API parity
	// with golang.org/x/tools/go/analysis).
	Run func(*Pass) (any, error)
}

// Pass provides one analyzer with the parsed, type-checked syntax of one
// package, plus the Report sink for diagnostics.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	// PkgPath is the package's import path as the build system names it
	// (go list / vet config). For test variants ("pkg [pkg.test]") it is
	// canonicalized to the plain import path.
	PkgPath   string
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
	// Program supplies whole-program context (call graph, cross-package
	// facts) to the interprocedural analyzers. nectar-vet and
	// TestRepoLintClean load the whole module into it; analysistest.Run
	// gives each fixture package a Program of its own.
	Program *Program
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string // filled by the driver
	// Chain is the offending call chain for interprocedural findings
	// (hotpath), from the annotated root to the function containing Pos.
	// Empty for intraprocedural findings.
	Chain []string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// IsTestFile reports whether pos lies in a _test.go file. The determinism
// rules exempt test files: tests measure wall clock, seed their own RNGs,
// and spawn goroutines under the race detector on purpose.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// canonicalPkgPath strips the test-variant suffix go list uses for
// packages recompiled with their test files ("pkg [pkg.test]" -> "pkg").
func canonicalPkgPath(path string) string {
	if i := strings.IndexByte(path, ' '); i >= 0 {
		return path[:i]
	}
	return path
}

// pkgNameOf resolves an identifier used as a package qualifier, returning
// the imported package's path ("" when expr is not a package name).
func pkgNameOf(info *types.Info, expr ast.Expr) string {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return ""
	}
	if pn, ok := info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

// rootIdent returns the leftmost identifier of an expression (x for
// x.f, x[i], x[:n], &x, *x), or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// fmtMethod returns the name of call's callee when it is a method named
// in hotpathFmtMethods, "" otherwise.
func fmtMethod(info *types.Info, call *ast.CallExpr) string {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Signature().Recv() == nil || !hotpathFmtMethods[fn.Name()] {
		return ""
	}
	return fn.Name()
}

// emissionKind classifies an emission surface: a call that produces
// externally observable, order-sensitive output.
type emissionKind uint8

const (
	emitTrace   emissionKind = iota + 1 // Observer trace event, gated by recv.Tracing()
	emitCapture                         // wire capture, gated by recv.CaptureLog() != nil
	emitMetric                          // metric observation, always on
	emitSink                            // sink delivery, and obs's internal emit/add plumbing
	emitOutbox                          // cross-shard outbox entry, drained at the window barrier
)

// emissionSurfaces lists every emission surface by function ID. obsgate
// checks the arguments of the trace, capture and metric surfaces;
// determinism's detrange rule flags a call of any kind inside a range
// over a map.
var emissionSurfaces = map[string]emissionKind{
	"(*nectar/internal/obs.Observer).Instant":       emitTrace,
	"(*nectar/internal/obs.Observer).InstantSeq":    emitTrace,
	"(*nectar/internal/obs.Observer).InstantArg":    emitTrace,
	"(*nectar/internal/obs.Observer).BeginSeq":      emitTrace,
	"(*nectar/internal/obs.Observer).End":           emitTrace,
	"(*nectar/internal/obs.Observer).CapturePacket": emitCapture,
	"(*nectar/internal/obs.Counter).Inc":            emitMetric,
	"(*nectar/internal/obs.Histogram).Observe":      emitMetric,
	"(*nectar/internal/obs.Observer).emit":          emitSink,
	"(*nectar/internal/obs.Capture).add":            emitSink,
	"(nectar/internal/obs.Sink).Event":              emitSink,
	"(*nectar/internal/obs.Recorder).Event":         emitSink,
	"(*nectar/internal/sim.Domain).SendSized":       emitOutbox,
}

// emissionNames indexes emissionSurfaces by bare function name, so that
// emissionOf builds a function ID only for a plausible callee.
var emissionNames = func() map[string]bool {
	m := make(map[string]bool, len(emissionSurfaces))
	for id := range emissionSurfaces {
		m[id[strings.LastIndexByte(id, '.')+1:]] = true
	}
	return m
}()

// emissionOf returns the emission kind of call's static callee, 0 when it
// is no emission surface.
func emissionOf(info *types.Info, call *ast.CallExpr) emissionKind {
	fn := calleeFunc(info, call)
	if fn == nil || !emissionNames[fn.Name()] {
		return 0
	}
	return emissionSurfaces[funcID(fn)]
}

// fmtFormatters lists the fmt functions whose variadic ...any allocates
// and whose result is freshly formatted: hotpath flags every call,
// obsgate treats one as a costly emission argument, and determinism
// flags one as a panic's sole argument. Fprintf returns two values, so
// it never appears in the latter two positions.
var fmtFormatters = map[string]bool{
	"Sprintf": true, "Sprint": true, "Sprintln": true,
	"Errorf": true, "Fprintf": true, "Appendf": true,
}

// All returns the full nectar-vet analyzer suite in reporting order: the
// per-file determinism rules, the call-graph analyzers (hotpath,
// shardsafe), the unit-safety checker (unitsafe), the dataflow-based
// observability checker (obsgate), the latency-model prover (costmodel),
// and the backward-dataflow lifecycle checker (poollife).
func All() []*Analyzer {
	return []*Analyzer{Determinism, Hotpath, Shardsafe, Unitsafe, Obsgate, Costmodel, Poollife, Deadstate}
}
