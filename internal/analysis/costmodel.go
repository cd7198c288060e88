package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// Costmodel proves latency-model soundness: every path from protocol or
// datalink code to a hardware transmit — a fiber Link.Send/SendAt or a
// VME Bus.PIO/PIOBytes/Reserve — must charge at least one latency
// from the paper's explicit cost model (a selector on model.CostModel:
// a field like cost.DatalinkProcess or a derived method like
// cost.FiberTime) somewhere before the transmit. A send path that
// charges nothing teleports bytes at virtual-time zero cost, which
// silently flattens the latency breakdown of Figures 6–8 and — worse —
// breaks the sharded scheduler, whose conservative lookahead is exactly
// the minimum model cost between a shard's inputs and its outbound
// links (see EXPERIMENTS.md): a zero-cost hop makes the real graph
// faster than the lookahead promise, and the windows stop being safe.
//
// The analysis runs on the whole-program call graph (callgraph.go). A
// function is *charged* when its top-level declaration (or any closure
// it contains) selects into model.CostModel. A function is in the
// *uncharged region* when it is not charged, not waived, and either
// touches a transmit sink directly or calls another member of the
// region; diagnostics flag only the region's entry points — the
// outermost uncharged functions — with the uncharged chain down to the
// sink, so one missing charge reports once, not once per caller.
//
// Pure forwarding steps whose latency is genuinely accounted elsewhere
// (the CAB's Transmit, whose DMA and wire time are charged by the
// datalink layer around it) carry //nectar:free-hop <reason>; the reason
// must say where the latency lives, and the waiver inventory
// (nectar-vet -waivers) lists every use.
var Costmodel = &Analyzer{
	Name: "costmodel",
	Doc: "every call path from protocol/datalink code to a fiber or VME transmit must charge at least one " +
		"model.CostModel latency before the transmit; uncharged paths are reported at the outermost uncharged " +
		"function with the offending chain. //nectar:free-hop <reason> waives audited pure forwarding steps.",
	Run: runCostmodel,
}

// costSinks are the hardware transmit surfaces, by stable function ID.
var costSinks = map[string]string{
	"(*nectar/internal/hw/fiber.Link).Send":   "fiber transmit Link.Send",
	"(*nectar/internal/hw/fiber.Link).SendAt": "fiber transmit Link.SendAt",
	"(*nectar/internal/hw/vme.Bus).PIO":       "VME transfer Bus.PIO",
	"(*nectar/internal/hw/vme.Bus).PIOBytes":  "VME transfer Bus.PIOBytes",
	"(*nectar/internal/hw/vme.Bus).Reserve":   "VME transfer Bus.Reserve",
}

// costModelPkg/costModelType name the cost-model type whose selectors
// count as charging.
const (
	costModelPkg  = "nectar/internal/model"
	costModelType = "CostModel"
)

func runCostmodel(pass *Pass) (any, error) {
	prog := programFor(pass)
	prog.ensureCost()
	for _, d := range prog.costDiags[canonicalPkgPath(pass.PkgPath)] {
		pass.Report(d)
	}
	return nil, nil
}

// ensureCost runs the uncharged-region analysis once and caches the
// per-package diagnostics.
func (prog *Program) ensureCost() {
	if prog.costDone {
		return
	}
	prog.costDone = true
	prog.ensureGraph()
	prog.costDiags = make(map[string][]Diagnostic)

	touches := make(map[*FuncNode][]string)
	chargedNode := make(map[*FuncNode]bool)
	eligible := make(map[*FuncNode]bool)
	for _, n := range prog.nodes {
		if !IsDeterministicPkg(canonicalPkgPath(n.Pkg.PkgPath)) {
			continue
		}
		if _, isSink := costSinks[n.ID]; isSink {
			continue // the transmit itself is the boundary, not a caller
		}
		if strings.HasSuffix(n.Pkg.Fset.Position(n.nodePos()).Filename, "_test.go") {
			continue
		}
		eligible[n] = true
		touches[n] = sinkTouches(n)
		chargedNode[n] = chargesCostModel(n)
	}

	// A declaration and its closures charge as one unit: deferring the
	// transmit into a k.At callback must not hide the charge the
	// enclosing function paid.
	chargedRoot := make(map[*FuncNode]bool)
	for n, c := range chargedNode {
		if c {
			chargedRoot[n.Root] = true
		}
	}
	charged := func(n *FuncNode) bool { return chargedRoot[n.Root] }
	waived := func(n *FuncNode) bool { return n.FreeHop || n.Root.FreeHop }

	// Uncharged-region fixpoint: membership propagates from sink-touching
	// functions backwards through call edges until stable.
	reach := make(map[*FuncNode]bool)
	for changed := true; changed; {
		changed = false
		for _, n := range prog.nodes {
			if reach[n] || !eligible[n] || charged(n) || waived(n) {
				continue
			}
			in := len(touches[n]) > 0
			for _, e := range n.Edges {
				if reach[e.Callee] {
					in = true
					break
				}
			}
			if in {
				reach[n] = true
				changed = true
			}
		}
	}

	// Entry points: region members no other member calls into.
	hasRegionCaller := make(map[*FuncNode]bool)
	for n := range reach {
		for _, e := range n.Edges {
			if reach[e.Callee] {
				hasRegionCaller[e.Callee] = true
			}
		}
	}
	var roots []*FuncNode
	for n := range reach {
		if !hasRegionCaller[n] {
			roots = append(roots, n)
		}
	}
	if len(roots) == 0 && len(reach) > 0 {
		// A purely cyclic region (mutual recursion into a transmit) has
		// no caller-free member; flag its ID-smallest one.
		for _, n := range prog.nodes {
			if reach[n] {
				roots = append(roots, n)
				break
			}
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].ID < roots[j].ID })

	for _, n := range roots {
		chain, label := costChain(n, reach, touches)
		path := canonicalPkgPath(n.Pkg.PkgPath)
		prog.costDiags[path] = append(prog.costDiags[path], Diagnostic{
			Pos: n.nodePos(),
			Message: fmt.Sprintf("%s reaches %s (%s) without charging any model.CostModel latency on the way; "+
				"this path moves bytes at zero virtual cost, which breaks the latency figures and the sharded "+
				"lookahead bound — charge a cost-model latency before the transmit, or annotate the pure "+
				"forwarding step //nectar:free-hop <reason saying where the latency is accounted>",
				n.DisplayName(), label, strings.Join(chain, " -> ")),
			Chain: chain,
		})
	}
}

// costChain reconstructs the uncharged chain from n down to a sink touch,
// returning the display chain and the sink's label.
func costChain(n *FuncNode, reach map[*FuncNode]bool, touches map[*FuncNode][]string) ([]string, string) {
	var chain []string
	seen := make(map[*FuncNode]bool)
	for cur := n; cur != nil && !seen[cur]; {
		seen[cur] = true
		chain = append(chain, cur.DisplayName())
		if ts := touches[cur]; len(ts) > 0 {
			return chain, ts[0]
		}
		var next *FuncNode
		for _, e := range cur.Edges {
			if reach[e.Callee] && !seen[e.Callee] {
				next = e.Callee
				break
			}
		}
		if next == nil {
			// Only touches remain on cycle-closing callees; pick any.
			for _, e := range cur.Edges {
				if ts := touches[e.Callee]; reach[e.Callee] && len(ts) > 0 {
					chain = append(chain, e.Callee.DisplayName())
					return chain, ts[0]
				}
			}
			break
		}
		cur = next
	}
	return chain, "a transmit sink"
}

// sinkTouches scans n's own body (children literals excluded — they are
// their own nodes) for direct references to transmit sinks: calls, and
// method values escaping as arguments or into variables/fields. It
// returns the label of each sink touched, in source order. Sinks
// are resolved by type information, not graph membership, so the check
// holds under single-package drivers where fiber/vme declarations are
// not loaded.
func sinkTouches(n *FuncNode) []string {
	body := n.Body()
	if body == nil {
		return nil
	}
	info := n.Pkg.TypesInfo
	var out []string
	note := func(obj *types.Func) {
		if obj == nil {
			return
		}
		if label, ok := costSinks[funcID(obj)]; ok {
			out = append(out, label)
		}
	}
	ast.Inspect(body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			if x != n.Lit {
				return false
			}
		case *ast.CallExpr:
			if sel, ok := unparenIndex(x.Fun).(*ast.SelectorExpr); ok {
				if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
					if obj, ok := s.Obj().(*types.Func); ok {
						note(obj)
					}
				}
			}
			for _, arg := range x.Args {
				note(funcValueOf(info, arg))
			}
		case *ast.AssignStmt:
			for _, r := range x.Rhs {
				note(funcValueOf(info, r))
			}
		}
		return true
	})
	return out
}

// chargesCostModel reports whether n's own body selects into
// model.CostModel — a latency field read (cost.HubSetup) or a derived
// cost method call (cost.FiberTime(n)).
func chargesCostModel(n *FuncNode) bool {
	body := n.Body()
	if body == nil {
		return false
	}
	info := n.Pkg.TypesInfo
	found := false
	ast.Inspect(body, func(x ast.Node) bool {
		if found {
			return false
		}
		switch x := x.(type) {
		case *ast.FuncLit:
			if x != n.Lit {
				return false
			}
		case *ast.SelectorExpr:
			tv, ok := info.Types[x.X]
			if !ok || tv.Type == nil {
				return true
			}
			t := tv.Type
			if p, okp := t.(*types.Pointer); okp {
				t = p.Elem()
			}
			if named, okn := t.(*types.Named); okn {
				if obj := named.Obj(); obj.Name() == costModelType && obj.Pkg() != nil && obj.Pkg().Path() == costModelPkg {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}
