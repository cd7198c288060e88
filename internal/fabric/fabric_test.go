package fabric

import (
	"bytes"
	"fmt"
	"testing"
)

// A star is one crossbar with a node on every port: every route is the
// single destination-port byte.
func TestStarShape(t *testing.T) {
	topo := Star(16)
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	if topo.Hubs() != 1 || topo.NodeCount() != 16 || len(topo.Trunks) != 0 || topo.Tiers() != 1 {
		t.Fatalf("star: %d hubs, %d nodes, %d trunks, %d tiers; want 1, 16, 0, 1",
			topo.Hubs(), topo.NodeCount(), len(topo.Trunks), topo.Tiers())
	}
	rt := NewRouteTable(topo)
	if r := nodeRoute(t, rt, topo, 3, 9); !bytes.Equal(r, []byte{9}) {
		t.Fatalf("route 3->9 = %v, want [9]", r)
	}
}

func TestLeafSpineShape(t *testing.T) {
	topo := LeafSpine(4, 2, 16)
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := topo.Hubs(); got != 6 {
		t.Fatalf("hubs = %d, want 6", got)
	}
	if got := topo.NodeCount(); got != 64 {
		t.Fatalf("nodes = %d, want 64", got)
	}
	if got := len(topo.Trunks); got != 16 { // 4 leaves x 2 spines, both directions
		t.Fatalf("trunks = %d, want 16", got)
	}
	if topo.Tiers() != 2 {
		t.Fatalf("tiers = %d, want 2", topo.Tiers())
	}
	// Node 35 sits on leaf 2 port 3.
	if topo.NodeHub[35] != 2 || topo.NodePort[35] != 3 {
		t.Fatalf("node 35 at (%d,%d), want (2,3)", topo.NodeHub[35], topo.NodePort[35])
	}
}

func TestFatTreeShape(t *testing.T) {
	topo := FatTree(4)
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := topo.Hubs(); got != 20 { // 8 edge + 8 agg + 4 core
		t.Fatalf("hubs = %d, want 20", got)
	}
	if got := topo.NodeCount(); got != 16 { // k^3/4
		t.Fatalf("nodes = %d, want 16", got)
	}
	if got := len(topo.Trunks); got != 64 { // 16 edge-agg pairs + 16 agg-core pairs, both directions
		t.Fatalf("trunks = %d, want 64", got)
	}
	if topo.Tiers() != 3 {
		t.Fatalf("tiers = %d, want 3", topo.Tiers())
	}
}

// Every trunk must have its reverse direction present with mirrored ports.
func TestTrunksAreSymmetric(t *testing.T) {
	for _, topo := range []*Topology{LeafSpine(4, 2, 16), FatTree(4), FatTree(8)} {
		have := make(map[Trunk]bool, len(topo.Trunks))
		for _, tr := range topo.Trunks {
			have[tr] = true
		}
		for _, tr := range topo.Trunks {
			rev := Trunk{FromHub: tr.ToHub, FromPort: tr.ToPort, ToHub: tr.FromHub, ToPort: tr.FromPort}
			if !have[rev] {
				t.Fatalf("%s: trunk %+v has no reverse", topo.Name, tr)
			}
		}
	}
}

// nodeRoute computes the full source route between two attachment points.
func nodeRoute(t *testing.T, rt *RouteTable, topo *Topology, src, dst int) []byte {
	t.Helper()
	r, ok := rt.Route(int(topo.NodeHub[src]), int(topo.NodeHub[dst]), int(topo.NodePort[dst]))
	if !ok {
		t.Fatalf("no route %d -> %d", src, dst)
	}
	return r
}

// Golden route-table test for the fat-tree builder: selected routes are
// pinned byte-for-byte, and the complete all-pairs table is identical
// across two independent rebuilds.
func TestFatTreeGoldenRoutes(t *testing.T) {
	topo := FatTree(4)
	rt := NewRouteTable(topo)
	golden := []struct {
		src, dst int
		route    []byte
	}{
		// Same edge switch: one byte, the destination's host port.
		{0, 1, []byte{1}},
		// Same pod, different edge: up to agg, down, host port.
		{0, 3, []byte{3, 1, 1}},
		// Cross pod: edge up, agg up, core down, agg down, host port.
		{0, 15, []byte{3, 3, 3, 1, 1}},
		{15, 0, []byte{3, 3, 0, 0, 0}},
		// Loopback: the crossbar turns the frame around on the host port.
		{5, 5, []byte{1}},
	}
	for _, g := range golden {
		if got := nodeRoute(t, rt, topo, g.src, g.dst); !bytes.Equal(got, g.route) {
			t.Errorf("route %d->%d = % x, want % x", g.src, g.dst, got, g.route)
		}
	}
	// Route lengths are fixed by tier distance.
	for src := 0; src < topo.NodeCount(); src++ {
		for dst := 0; dst < topo.NodeCount(); dst++ {
			r := nodeRoute(t, rt, topo, src, dst)
			want := 1 // same edge
			if src/2 != dst/2 {
				want = 3 // same pod
			}
			if src/4 != dst/4 {
				want = 5 // cross pod
			}
			if len(r) != want {
				t.Fatalf("route %d->%d has %d hops, want %d (route % x)", src, dst, len(r), want, r)
			}
		}
	}
}

// Rebuilding the same fabric must reproduce the identical route table.
func TestRoutesDeterministicAcrossRebuilds(t *testing.T) {
	build := func() (*Topology, *RouteTable) {
		topo := FatTree(4)
		return topo, NewRouteTable(topo)
	}
	t1, r1 := build()
	t2, r2 := build()
	for src := 0; src < t1.NodeCount(); src++ {
		for dst := 0; dst < t1.NodeCount(); dst++ {
			a := nodeRoute(t, r1, t1, src, dst)
			b := nodeRoute(t, r2, t2, src, dst)
			if !bytes.Equal(a, b) {
				t.Fatalf("route %d->%d differs across rebuilds: % x vs % x", src, dst, a, b)
			}
		}
	}
	if r1.Entries() != r2.Entries() || r1.Bytes() != r2.Bytes() {
		t.Fatalf("table stats differ: (%d,%d) vs (%d,%d)", r1.Entries(), r1.Bytes(), r2.Entries(), r2.Bytes())
	}
}

func TestLeafSpineRoutes(t *testing.T) {
	topo := LeafSpine(4, 2, 16)
	rt := NewRouteTable(topo)
	// Node 0 (leaf 0, port 0) -> node 35 (leaf 2, port 3): spine (0+2)%2=0.
	if got := nodeRoute(t, rt, topo, 0, 35); !bytes.Equal(got, []byte{16, 2, 3}) {
		t.Fatalf("route 0->35 = % x, want 10 02 03", got)
	}
	// Same leaf: direct.
	if got := nodeRoute(t, rt, topo, 0, 5); !bytes.Equal(got, []byte{5}) {
		t.Fatalf("route 0->5 = % x, want 05", got)
	}
}

// Route strings are deduplicated: every (srcHub, dstHub, dstPort) triple is
// computed once and all callers share the same backing array.
func TestRouteTableDedup(t *testing.T) {
	topo := LeafSpine(4, 2, 16)
	rt := NewRouteTable(topo)
	a := nodeRoute(t, rt, topo, 0, 35) // leaf 0 -> leaf 2 port 3
	b := nodeRoute(t, rt, topo, 7, 35) // same leaf, same destination
	if &a[0] != &b[0] {
		t.Fatal("same-triple routes do not share a backing array")
	}
	before := rt.Entries()
	nodeRoute(t, rt, topo, 9, 35)
	if rt.Entries() != before {
		t.Fatal("repeated triple grew the table")
	}
	// All-pairs over 64 nodes is 4096 node pairs but only
	// leaves*leaves*perLeaf distinct (srcHub,dstHub,dstPort) triples.
	for src := 0; src < topo.NodeCount(); src++ {
		for dst := 0; dst < topo.NodeCount(); dst++ {
			nodeRoute(t, rt, topo, src, dst)
		}
	}
	if want := 4 * 4 * 16; rt.Entries() != want {
		t.Fatalf("entries = %d, want %d", rt.Entries(), want)
	}
}

func TestBuilderLimits(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("leaf ports", func() { LeafSpine(2, 200, 100) })
	mustPanic("spine ports", func() { LeafSpine(300, 2, 4) })
	mustPanic("odd arity", func() { FatTree(5) })
	mustPanic("arity limit", func() { FatTree(258) })
}

func TestTrunkIndex(t *testing.T) {
	topo := LeafSpine(2, 2, 4)
	for ti, tr := range topo.Trunks {
		got, ok := topo.TrunkIndex(tr.FromHub, tr.FromPort)
		if !ok || got != ti {
			t.Fatalf("TrunkIndex(%d,%d) = %d,%v want %d", tr.FromHub, tr.FromPort, got, ok, ti)
		}
	}
	if _, ok := topo.TrunkIndex(0, 0); ok { // port 0 is a node attachment
		t.Fatal("node port resolved to a trunk")
	}
	if _, ok := topo.TrunkIndex(99, 0); ok {
		t.Fatal("out-of-range hub resolved to a trunk")
	}
}

func ExampleFatTree() {
	topo := FatTree(64)
	fmt.Println(topo.Name, topo.NodeCount(), "hosts,", topo.Hubs(), "hubs,", len(topo.Trunks), "trunks")
	// Output: fat-tree k=64 65536 hosts, 5120 hubs, 262144 trunks
}
