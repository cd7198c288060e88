package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// The //nectar: directive namespace. Every verb has exactly one row in
// directiveTable saying what justification it needs, where it may sit,
// whether it is a waiver, and which packages may carry it; the one
// hygiene-and-placement pass (checkDirectives, run by the determinism
// analyzer in every package) and the waiver inventory (nectar-vet
// -waivers, TestRepoLintClean) are both driven by that table, so a
// misspelled, bare, or misplaced escape hatch can never silently
// disable a check.
//
//	//nectar:allow-walltime <reason>   — suppress wall-clock findings on
//	                                     the directive's own line and the
//	                                     next line, or (as a function's
//	                                     doc comment) in the whole function.
//	//nectar:hotpath                   — mark a function as an allocation-
//	                                     free fast path; hotpath audits its
//	                                     body and everything it transitively
//	                                     calls.
//	//nectar:hotpath-exempt <reason>   — prune a function (and everything
//	                                     reachable only through it) from
//	                                     hotpath's transitive audit.
//	//nectar:shard-owned               — mark a type or struct field as
//	                                     per-shard state; shardsafe then
//	                                     requires a receiver/parameter
//	                                     ownership chain at every access.
//	//nectar:shard-boundary <reason>   — mark a function as an audited
//	                                     cross-domain surface (the PDES
//	                                     outbox/barrier code); shardsafe
//	                                     skips its body.
//	//nectar:free-hop <reason>         — mark a function whose path to a
//	                                     fiber/VME transmit is genuinely
//	                                     zero-cost (or charged elsewhere);
//	                                     costmodel accepts the path. The
//	                                     reason must say where the latency
//	                                     is accounted.
//	//nectar:diag-helper <reason>      — mark a function as a sanctioned
//	                                     deterministic diagnostic helper
//	                                     (sim.Panicf); determinism's
//	                                     failure-path rule skips its body.
//	//nectar:takes-ownership <param> <reason>
//	                                   — declare that a function assumes
//	                                     the release obligation for the
//	                                     named pooled-value parameter (or
//	                                     receiver); poollife ends the
//	                                     caller's obligation at the call
//	                                     and checks the callee releases or
//	                                     forwards it on every path.
//	//nectar:leak-ok <reason>          — waive a poollife leak finding for
//	                                     a deliberate sink (same placement
//	                                     rules as allow-walltime).
//	//nectar:api <reason>              — keep an exported nectar/internal
//	                                     name that no non-test file uses
//	                                     (deadstate's exported half); on a
//	                                     type it covers the type's methods
//	                                     and fields.

const (
	dirPrefix        = "//nectar:"
	DirAllowWalltime = "allow-walltime"
	DirHotpath       = "hotpath"
	DirHotpathExempt = "hotpath-exempt"
	DirShardOwned    = "shard-owned"
	DirShardBoundary = "shard-boundary"
	DirFreeHop       = "free-hop"
	DirDiagHelper    = "diag-helper"
	DirTakesOwner    = "takes-ownership"
	DirLeakOK        = "leak-ok"
	DirAPI           = "api"
)

// placement is where a directive may sit.
type placement uint8

const (
	// onFuncDoc: part of a function declaration's doc comment.
	onFuncDoc placement = iota
	// onTypeOrField: a type declaration's doc comment, or a struct
	// field's doc or line comment.
	onTypeOrField
	// onLineOrFunc: anywhere; it covers its own line and the next, or a
	// whole function from its doc comment (see suppressor).
	onLineOrFunc
	// onDecl: the doc comment of a func, type, var or const declaration
	// or spec, or a struct field's doc or line comment.
	onDecl
)

// directiveRule is one verb's row in directiveTable.
type directiveRule struct {
	verb string
	// words is how many words the justification must have (0: none, 1: a
	// reason, 2: a parameter name and a reason); needs and example spell
	// out the requirement in the diagnostic.
	words   int
	needs   string
	example string
	place   placement
	// waiver marks verbs that weaken or scope a check; they are listed
	// by the inventory. Pure markers opt code into checking instead.
	waiver bool
	// pkgs lists the packages a waiver may sit in: exact import paths,
	// or prefixes ending in "/" for everything below them. Nil means
	// anywhere.
	pkgs []string
}

// directiveTable has one row per verb, in the order the unknown-verb
// diagnostic lists them.
var directiveTable = []directiveRule{
	{verb: DirAllowWalltime, words: 1, needs: "a reason", example: "measures sweep wall clock", place: onLineOrFunc, waiver: true,
		// Harness self-measurement and the wall-clock profiler only.
		pkgs: []string{"nectar/internal/bench", "nectar/internal/prof"}},
	{verb: DirHotpath, place: onFuncDoc},
	{verb: DirHotpathExempt, words: 1, needs: "a reason", example: "cold reconfiguration path", place: onFuncDoc, waiver: true},
	{verb: DirShardOwned, place: onTypeOrField},
	{verb: DirShardBoundary, words: 1, needs: "a reason", example: "window-barrier outbox drain", place: onFuncDoc, waiver: true},
	{verb: DirFreeHop, words: 1, needs: "a reason saying where the latency is accounted",
		example: "caller charges DatalinkProcess+DMASetup", place: onFuncDoc, waiver: true,
		// The thin hardware-wrapper layers only: a free-hop inside the
		// protocol stack would hide a genuinely uncharged send path.
		pkgs: []string{"nectar/internal/hw/", "nectar/internal/rt/exec"}},
	{verb: DirDiagHelper, words: 1, needs: "a reason", example: "the one sanctioned deterministic panic surface",
		place: onFuncDoc, waiver: true,
		// There is exactly one sanctioned formatted-panic surface, sim.Panicf.
		pkgs: []string{"nectar/internal/sim"}},
	// Lifecycle annotations belong to the layers that own pooled values:
	// the hardware models and the protocol stack. Anywhere else they are
	// either a new pool (add it to poollife's tables) or a suppression
	// hiding a leak.
	{verb: DirTakesOwner, words: 2, needs: "a parameter name and a reason", example: "pkt released on every drop path or handed to DMA",
		place: onFuncDoc, waiver: true, pkgs: []string{"nectar/internal/hw/", "nectar/internal/proto/"}},
	{verb: DirLeakOK, words: 1, needs: "a reason", example: "the popped slot is returned through the Peek alias",
		place: onLineOrFunc, waiver: true, pkgs: []string{"nectar/internal/hw/", "nectar/internal/proto/"}},
	// Exported API with no non-test caller keeps its place only with a
	// reason; deadstate's exported half judges nectar/internal/ alone.
	{verb: DirAPI, words: 1, needs: "a reason", example: "safety check the heap tests run after every operation",
		place: onDecl, waiver: true, pkgs: []string{"nectar/internal/"}},
}

// ruleFor returns verb's row, or nil for an unknown verb.
func ruleFor(verb string) *directiveRule {
	for i := range directiveTable {
		if directiveTable[i].verb == verb {
			return &directiveTable[i]
		}
	}
	return nil
}

// allows reports whether a waiver with this rule may sit in package pkg.
func (r *directiveRule) allows(pkg string) bool {
	if r.pkgs == nil {
		return true
	}
	for _, p := range r.pkgs {
		if pkg == p || strings.HasSuffix(p, "/") && strings.HasPrefix(pkg, p) {
			return true
		}
	}
	return false
}

// directive is one parsed //nectar: comment.
type directive struct {
	verb string
	arg  string // rest of the comment (the justification)
	pos  token.Pos
	line int
}

// parseDirective parses a single comment, returning ok=false when it is
// not a //nectar: comment at all.
func parseDirective(fset *token.FileSet, c *ast.Comment) (directive, bool) {
	if !strings.HasPrefix(c.Text, dirPrefix) {
		return directive{}, false
	}
	rest := c.Text[len(dirPrefix):]
	verb, arg, _ := strings.Cut(rest, " ")
	return directive{
		verb: verb,
		arg:  strings.TrimSpace(arg),
		pos:  c.Pos(),
		line: fset.Position(c.Pos()).Line,
	}, true
}

// declDirectives returns the parsed //nectar: directives in fd's doc.
func declDirectives(fset *token.FileSet, fd *ast.FuncDecl) []directive {
	if fd.Doc == nil {
		return nil
	}
	var out []directive
	for _, c := range fd.Doc.List {
		if d, ok := parseDirective(fset, c); ok {
			out = append(out, d)
		}
	}
	return out
}

// hasWaiver reports whether fd's doc comment carries verb with a
// justification (a bare waiver is a hygiene finding and waives nothing).
func hasWaiver(fset *token.FileSet, fd *ast.FuncDecl, verb string) bool {
	for _, d := range declDirectives(fset, fd) {
		if d.verb == verb && d.arg != "" {
			return true
		}
	}
	return false
}

// docSites maps each comment group in f that documents a declaration to
// that declaration: a *ast.FuncDecl, a type, var or const *ast.GenDecl,
// an *ast.TypeSpec or *ast.ValueSpec, or a struct *ast.Field (doc or
// line comment).
func docSites(f *ast.File) map[*ast.CommentGroup]ast.Node {
	sites := make(map[*ast.CommentGroup]ast.Node)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			sites[n.Doc] = n
		case *ast.GenDecl:
			if n.Tok != token.IMPORT {
				sites[n.Doc] = n
			}
		case *ast.TypeSpec:
			sites[n.Doc] = n
		case *ast.ValueSpec:
			sites[n.Doc] = n
			sites[n.Comment] = n
		case *ast.StructType:
			for _, fld := range n.Fields.List {
				sites[fld.Doc] = fld
				sites[fld.Comment] = fld
			}
		}
		return true
	})
	delete(sites, nil)
	return sites
}

// checkDirectives is the hygiene-and-placement pass over f: an unknown
// verb (usually a typo — "allow-waltime"), a justification missing
// words, or a directive sitting where its row does not allow is itself a
// diagnostic.
func checkDirectives(pass *Pass, f *ast.File) {
	var sites map[*ast.CommentGroup]ast.Node // built on the first directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			d, ok := parseDirective(pass.Fset, c)
			if !ok {
				continue
			}
			r := ruleFor(d.verb)
			if r == nil {
				verbs := make([]string, len(directiveTable))
				for i, row := range directiveTable {
					verbs[i] = row.verb
				}
				pass.Reportf(d.pos, "unknown directive %q: known //nectar: directives are %s, and %s",
					dirPrefix+d.verb, strings.Join(verbs[:len(verbs)-1], ", "), verbs[len(verbs)-1])
				continue
			}
			if len(strings.Fields(d.arg)) < r.words {
				pass.Reportf(d.pos, "//nectar:%s requires %s (e.g. //nectar:%s %s)", r.verb, r.needs, r.verb, r.example)
			}
			if sites == nil {
				sites = docSites(f)
			}
			switch site := sites[cg]; r.place {
			case onFuncDoc:
				if _, ok := site.(*ast.FuncDecl); !ok {
					pass.Reportf(d.pos, "//nectar:%s must be part of a function declaration's doc comment", r.verb)
				}
			case onTypeOrField:
				gd, isGen := site.(*ast.GenDecl)
				_, isSpec := site.(*ast.TypeSpec)
				_, isField := site.(*ast.Field)
				if !(isGen && gd.Tok == token.TYPE || isSpec || isField) {
					pass.Reportf(d.pos, "//nectar:%s must annotate a type declaration or a struct field", r.verb)
				}
			case onDecl:
				if site == nil {
					pass.Reportf(d.pos, "//nectar:%s must be part of a declaration's doc comment or a struct field's comment", r.verb)
				}
			}
		}
	}
}

// suppressor answers "is this position excused from a given directive?".
// A well-formed directive covers its own source line and the next line
// (so it can trail the offending expression or sit just above it); a
// directive in a function declaration's doc comment covers the entire
// function. A directive anywhere else — two lines up, inside an unrelated
// block — covers nothing, which the testdata pins down.
type suppressor struct {
	lines     map[int]bool // line numbers covered
	funcSpans []span       // body ranges of annotated functions
}

type span struct{ from, to token.Pos }

// newSuppressor builds the suppression index for verb in file f.
func newSuppressor(pass *Pass, f *ast.File, verb string) *suppressor {
	s := &suppressor{lines: make(map[int]bool)}
	doc := make(map[*ast.CommentGroup]bool)
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && hasWaiver(pass.Fset, fd, verb) {
			doc[fd.Doc] = true
			s.funcSpans = append(s.funcSpans, span{fd.Pos(), fd.End()})
		}
	}
	for _, cg := range f.Comments {
		if doc[cg] {
			continue
		}
		for _, c := range cg.List {
			if d, ok := parseDirective(pass.Fset, c); ok && d.verb == verb && d.arg != "" {
				s.lines[d.line] = true
				s.lines[d.line+1] = true
			}
		}
	}
	return s
}

// allows reports whether pos is covered by the suppressor.
func (s *suppressor) allows(pass *Pass, pos token.Pos) bool {
	if s.lines[pass.Fset.Position(pos).Line] {
		return true
	}
	for _, sp := range s.funcSpans {
		if sp.from <= pos && pos < sp.to {
			return true
		}
	}
	return false
}
