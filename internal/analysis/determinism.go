package analysis

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// Determinism enforces the simulator's reproducibility contract: two runs
// of the same seed — sequential or sharded — must produce byte-identical
// output. It walks each non-test file once and applies the rules in
// detRules; walltime, seededrand and detfail hold in deterministic
// packages only (pkgclass.go), rawgo and detrange in every package. It
// also runs the //nectar: directive hygiene-and-placement pass
// (directives.go) over every file of every package.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "determinism contract: in deterministic packages no wall-clock time (time.Now/Sleep/After/...; " +
		"//nectar:allow-walltime <reason> escapes measurement code), no global math/rand state (inject a seeded " +
		"*rand.Rand), and failures only through Kernel.Fatalf/sim.Panicf (no os.Exit, package log, or " +
		"panic(fmt.Sprintf(...)) outside //nectar:diag-helper functions); in every package no go statements " +
		"outside the approved concurrency surfaces and no trace/metric/capture/outbox emission inside a range " +
		"over a map. Also validates //nectar: directive hygiene and placement.",
	Run: runDeterminism,
}

// detRule is one determinism check, applied to every node of the walk.
type detRule struct {
	detOnly bool // deterministic packages only
	check   func(w *detWalk, n ast.Node)
}

var detRules = []detRule{
	{detOnly: true, check: checkWalltime},
	{detOnly: true, check: checkSeededrand},
	{check: checkRawgo},
	{detOnly: true, check: checkDetfail},
	{check: checkDetrange},
}

// detWalk is the state of one file's walk.
type detWalk struct {
	pass *Pass
	pkg  string      // canonical import path
	sup  *suppressor // allow-walltime, built for deterministic packages
	// goApproved marks the approved concurrency surfaces (rawgoApproved).
	goApproved bool
	// fn is the enclosing function declaration; helper records whether
	// it carries //nectar:diag-helper <reason>.
	fn     *ast.FuncDecl
	helper bool
	// stack holds the open nodes; inMap counts the enclosing bodies of
	// ranges over a map, whose entries are in mapBodies.
	stack     []ast.Node
	mapBodies map[*ast.BlockStmt]bool
	inMap     int
}

func runDeterminism(pass *Pass) (any, error) {
	det := IsDeterministicPkg(pass.PkgPath)
	var rules []detRule
	for _, r := range detRules {
		if det || !r.detOnly {
			rules = append(rules, r)
		}
	}
	for _, f := range pass.Files {
		checkDirectives(pass, f)
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		w := &detWalk{
			pass:       pass,
			pkg:        canonicalPkgPath(pass.PkgPath),
			goApproved: rawgoFileApproved(pass.Fset.Position(f.Pos()).Filename),
			mapBodies:  make(map[*ast.BlockStmt]bool),
		}
		if det {
			w.sup = newSuppressor(pass, f, DirAllowWalltime)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				top := w.stack[len(w.stack)-1]
				w.stack = w.stack[:len(w.stack)-1]
				if b, ok := top.(*ast.BlockStmt); ok && w.mapBodies[b] {
					w.inMap--
				}
				return true
			}
			w.stack = append(w.stack, n)
			switch n := n.(type) {
			case *ast.FuncDecl:
				w.fn, w.helper = n, hasWaiver(pass.Fset, n, DirDiagHelper)
			case *ast.BlockStmt:
				if w.mapBodies[n] {
					w.inMap++
				}
			}
			for _, r := range rules {
				r.check(w, n)
			}
			return true
		})
	}
	return nil, nil
}

// walltimeForbidden lists the package-level time functions that read or
// wait on the machine's clock. Deterministic packages run on sim virtual
// time exclusively: a single time.Now in a protocol layer makes two runs
// of the same seed diverge, which breaks the byte-identical guarantee
// behind Figures 6–8 and the sharded-vs-sequential comparison.
var walltimeForbidden = map[string]bool{
	"Now": true, "Sleep": true, "After": true, "AfterFunc": true, "Since": true,
	"Until": true, "NewTimer": true, "NewTicker": true, "Tick": true,
}

func checkWalltime(w *detWalk, n ast.Node) {
	sel, ok := n.(*ast.SelectorExpr)
	if !ok || pkgNameOf(w.pass.TypesInfo, sel.X) != "time" || !walltimeForbidden[sel.Sel.Name] {
		return
	}
	if w.sup.allows(w.pass, sel.Pos()) {
		return
	}
	w.pass.Reportf(sel.Pos(),
		"wall-clock time.%s in deterministic package %s: simulation logic must use sim virtual time "+
			"(annotate measurement code with //nectar:allow-walltime <reason>)",
		sel.Sel.Name, w.pkg)
}

// seededrandAllowed lists the math/rand package-level names that do not
// touch the package's global generator: the constructors and types used
// to build an injected, seeded source. Everything else (Intn, Float64,
// Perm, Shuffle, Seed, Read, ...) draws from — or mutates — process-wide
// state whose sequence depends on what every other caller in the binary
// has consumed, so two runs of the same Config would diverge.
var seededrandAllowed = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "Rand": true, "Source": true, "Zipf": true,
	// math/rand/v2
	"NewPCG": true, "NewChaCha8": true, "PCG": true, "ChaCha8": true,
}

func checkSeededrand(w *detWalk, n ast.Node) {
	sel, ok := n.(*ast.SelectorExpr)
	if !ok || seededrandAllowed[sel.Sel.Name] {
		return
	}
	if p := pkgNameOf(w.pass.TypesInfo, sel.X); p != "math/rand" && p != "math/rand/v2" {
		return
	}
	w.pass.Reportf(sel.Pos(),
		"global math/rand state (rand.%s) in deterministic package %s: "+
			"inject a seeded *rand.Rand whose seed flows from Config",
		sel.Sel.Name, w.pkg)
}

// rawgoApproved lists the only non-test files allowed to contain go
// statements. The conservative safe-window scheduler's determinism proof
// rests on exactly one goroutine executing simulation state per kernel;
// every goroutine in the tree must therefore be one of the audited
// handoff structures:
//
//   - internal/sim/pdes.go      — the PDES domain workers, synchronized
//     by the winSeq/doneSeq window barrier.
//   - internal/bench/parallel.go — the sweep worker pool; each job owns
//     a private kernel, results assemble in job-index order.
//
// The kernel's Procs are iter.Pull coroutines, not go statements, so
// internal/sim/proc.go is not on the list.
//
// A goroutine anywhere else has no barrier to synchronize with and would
// race simulation state or reorder observable output, so there is no
// escape directive: new concurrency surfaces must be added here, in
// review, with their synchronization story.
var rawgoApproved = []string{
	"internal/sim/pdes.go",
	"internal/bench/parallel.go",
}

func rawgoFileApproved(filename string) bool {
	f := filepath.ToSlash(filename)
	for _, a := range rawgoApproved {
		if f == a || strings.HasSuffix(f, "/"+a) {
			return true
		}
	}
	return false
}

func checkRawgo(w *detWalk, n ast.Node) {
	if g, ok := n.(*ast.GoStmt); ok && !w.goApproved {
		w.pass.Reportf(g.Pos(),
			"go statement outside the approved concurrency surfaces (%s): "+
				"stray goroutines break the conservative safe-window scheduler's determinism proof",
			strings.Join(rawgoApproved, ", "))
	}
}

// checkDetfail polices failure paths inside function bodies: a simulation
// invariant violation must surface through the deterministic diagnostic
// helpers — Kernel.Fatalf for recoverable misconfiguration the run
// reports, sim.Panicf for programming errors — so two replays of the
// same seed fail with byte-identical messages at the same virtual
// instant. Flagged escape routes:
//
//   - os.Exit: kills the process without unwinding; no deferred capture
//     flush, no merged-run comparison, and the exit code is the only
//     evidence.
//   - package log (log.Printf, log.Fatal, ...): stamps wall-clock times
//     into the output and writes to a global logger the harness does not
//     own.
//   - panic(fmt.Sprintf(...)) and friends: ad-hoc formatted panics
//     drift in format between sites; routing them through sim.Panicf
//     (annotated //nectar:diag-helper) keeps messages uniform and gives
//     grep one place to find every formatted invariant panic. A bare
//     panic("constant") stays legal — it is already deterministic.
//
// Functions annotated //nectar:diag-helper <reason> are the sanctioned
// implementation surface and are skipped; the waiver inventory
// (nectar-vet -waivers) lists them.
func checkDetfail(w *detWalk, n ast.Node) {
	call, ok := n.(*ast.CallExpr)
	if !ok || w.fn == nil || w.helper || w.fn.Body == nil || call.Pos() < w.fn.Body.Pos() || call.Pos() >= w.fn.Body.End() {
		return
	}
	info := w.pass.TypesInfo
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		switch pkgNameOf(info, fun.X) {
		case "os":
			if fun.Sel.Name == "Exit" {
				w.pass.Reportf(call.Pos(), "os.Exit in a deterministic package kills the run without a replayable diagnostic; "+
					"fail through Kernel.Fatalf (reported by Run) or sim.Panicf")
			}
		case "log":
			w.pass.Reportf(call.Pos(), "package log writes wall-clock-stamped output through a global logger; "+
				"deterministic packages must diagnose through Kernel.Fatalf, sim.Panicf, or the obs trace sinks")
		}
	case *ast.Ident:
		if fun.Name != "panic" || !info.Types[call.Fun].IsBuiltin() || len(call.Args) != 1 {
			return
		}
		if inner, ok := call.Args[0].(*ast.CallExpr); ok {
			if sel, ok := inner.Fun.(*ast.SelectorExpr); ok && pkgNameOf(info, sel.X) == "fmt" && fmtFormatters[sel.Sel.Name] {
				w.pass.Reportf(call.Pos(), "ad-hoc panic(fmt.%s(...)) drifts in format between sites; "+
					"use sim.Panicf for uniform, replayable invariant diagnostics", sel.Sel.Name)
			}
		}
	}
}

// checkDetrange registers the body of every range over a map and flags
// emissions (emissionSurfaces) inside one. Emitting a trace event, metric
// observation, wire capture or cross-shard outbox entry from inside a
// range over a map bakes Go's randomized iteration order into the
// observable output — exactly the bug class internal/obs/merge.go's
// canonicalization exists to prevent on the other side of the shard
// boundary. The fix is always the same: collect the keys, sort them, and
// range over the slice.
func checkDetrange(w *detWalk, n ast.Node) {
	switch n := n.(type) {
	case *ast.RangeStmt:
		tv, ok := w.pass.TypesInfo.Types[n.X]
		if !ok || tv.Type == nil {
			return
		}
		t := tv.Type.Underlying()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem().Underlying()
		}
		if _, ok := t.(*types.Map); ok {
			w.mapBodies[n.Body] = true
		}
	case *ast.CallExpr:
		if w.inMap == 0 {
			return
		}
		if emissionOf(w.pass.TypesInfo, n) != 0 {
			fn := calleeFunc(w.pass.TypesInfo, n)
			w.pass.Reportf(n.Pos(),
				"%s.%s emits order-sensitive output inside a range over a map: iteration order is "+
					"nondeterministic and breaks byte-identical runs; iterate a sorted key slice instead "+
					"(cf. internal/obs/merge.go)",
				fn.Pkg().Name(), fn.Name())
		}
	}
}
