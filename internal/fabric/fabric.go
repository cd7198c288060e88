// Package fabric builds datacenter-scale HUB topologies as data: a
// Topology names every crossbar, every trunk fiber between crossbars, and
// every node attachment point, and computes hierarchical source routes in
// closed form. Every cluster is built from a Topology: the paper's
// single-HUB installation is a Star, and the same builder scales to
// leaf-spine and fat-tree fabrics with tens of thousands of attachment
// points.
//
// Route port numbers ride in single bytes on the wire (the HUB consumes
// one route byte per hop, paper §2.1), so every crossbar is limited to 256
// ports. Two-tier leaf-spine fabrics therefore top out below 64k nodes;
// the three-tier fat tree (k-ary, k^3/4 hosts) reaches 65,536 hosts at
// k=64 with 64-port crossbars.
//
// All route computation is deterministic: equal-cost paths are spread by
// closed-form formulas over source and destination coordinates, never by
// randomization, so two builds of the same Topology produce byte-identical
// route tables.
package fabric

import (
	"fmt"

	"nectar/internal/sim"
)

// Trunk is one directed inter-HUB fiber: it leaves FromHub at output port
// FromPort and terminates at ToHub's input port ToPort. Builders emit both
// directions of every physical pair as two Trunks.
type Trunk struct {
	FromHub, FromPort int
	ToHub, ToPort     int
}

// kind is the fabric shape; kinds are ordered by tier count (see Tiers).
type kind int

const (
	kindStar kind = iota
	kindLeafSpine
	kindFatTree
)

// Topology is a HUB fabric as data: crossbar sizes, trunk wiring, and node
// attachment points, plus the closed-form router for its tier structure.
type Topology struct {
	// Name describes the fabric, e.g. "star 16", "leaf-spine 32x128+8"
	// or "fat-tree k=64".
	Name string
	// HubPorts is the port count of each crossbar; len(HubPorts) is the
	// number of HUBs.
	HubPorts []int
	// Trunks lists every directed inter-HUB fiber.
	Trunks []Trunk
	// NodeHub and NodePort give attachment point i's crossbar and port.
	// Kept as parallel int32 arrays — the arena backing the compact node
	// representation (8 bytes per attachment point).
	NodeHub  []int32
	NodePort []int32

	kind kind
	// leaf-spine parameters.
	leaves, spines, perLeaf int
	// fat-tree parameter (k-ary: k pods, (k/2)^2 cores, k^3/4 hosts).
	k int

	// portBase[h] is the offset of hub h's first port in the flat
	// per-port tables below and in Validate's claim table;
	// portBase[len(HubPorts)] is the fabric's port count. Built once by
	// ports.
	portBase []int32
	// trunkAt[portBase[hub]+port] is the index into Trunks of the trunk
	// leaving hub at port, or -1. Built once by ensureIndex.
	trunkAt []int32
}

// Star builds the paper's basic installation (§2.1): one crossbar of
// `ports` ports with a node attachment point on every port and no trunks.
func Star(ports int) *Topology {
	if ports < 1 || ports > 256 {
		sim.Panicf("fabric: star needs 1..256 ports; got %d", ports)
	}
	t := &Topology{
		Name:     fmt.Sprintf("star %d", ports),
		kind:     kindStar,
		HubPorts: []int{ports},
		NodeHub:  make([]int32, ports),
		NodePort: make([]int32, ports),
	}
	for i := range t.NodePort {
		t.NodePort[i] = int32(i)
	}
	return t
}

// LeafSpine builds a two-tier Clos fabric: `leaves` edge crossbars each
// attaching `perLeaf` nodes (ports 0..perLeaf-1) and uplinking to every one
// of `spines` spine crossbars (leaf port perLeaf+s -> spine s; spine port
// l -> leaf l). Cross-leaf routes take two hops via a spine chosen
// deterministically from the leaf pair.
func LeafSpine(leaves, spines, perLeaf int) *Topology {
	if leaves < 1 || spines < 1 || perLeaf < 1 {
		panic("fabric: LeafSpine dimensions must be positive")
	}
	if perLeaf+spines > 256 {
		sim.Panicf("fabric: leaf needs %d ports; route bytes allow 256", perLeaf+spines)
	}
	if leaves > 256 {
		sim.Panicf("fabric: spine needs %d ports; route bytes allow 256", leaves)
	}
	t := &Topology{
		Name: fmt.Sprintf("leaf-spine %dx%d+%d", leaves, perLeaf, spines),
		kind: kindLeafSpine, leaves: leaves, spines: spines, perLeaf: perLeaf,
		Trunks: make([]Trunk, 0, 2*leaves*spines),
	}
	t.HubPorts = make([]int, leaves+spines)
	for l := 0; l < leaves; l++ {
		t.HubPorts[l] = perLeaf + spines
	}
	for s := 0; s < spines; s++ {
		t.HubPorts[leaves+s] = leaves
	}
	for l := 0; l < leaves; l++ {
		for s := 0; s < spines; s++ {
			t.Trunks = append(t.Trunks,
				Trunk{FromHub: l, FromPort: perLeaf + s, ToHub: leaves + s, ToPort: l},
				Trunk{FromHub: leaves + s, FromPort: l, ToHub: l, ToPort: perLeaf + s})
		}
	}
	n := leaves * perLeaf
	t.NodeHub = make([]int32, n)
	t.NodePort = make([]int32, n)
	for i := 0; i < n; i++ {
		t.NodeHub[i] = int32(i / perLeaf)
		t.NodePort[i] = int32(i % perLeaf)
	}
	return t
}

// FatTree builds the three-tier k-ary fat tree (k even): k pods of k/2 edge
// and k/2 aggregation crossbars, (k/2)^2 cores, k^3/4 hosts, every crossbar
// a k-port switch. Edge(p,e) attaches hosts on ports 0..k/2-1 and uplinks
// port k/2+a to Agg(p,a); Agg(p,a) downlinks port e to Edge(p,e) and
// uplinks port k/2+i to Core(a*k/2+i); Core(j) connects port p to
// Agg(p, j/(k/2)).
func FatTree(k int) *Topology {
	if k < 2 || k%2 != 0 {
		panic("fabric: FatTree arity must be even and >= 2")
	}
	if k > 256 {
		sim.Panicf("fabric: fat-tree switches need %d ports; route bytes allow 256", k)
	}
	half := k / 2
	edges := k * half    // ids [0, edges)
	aggs := k * half     // ids [edges, edges+aggs)
	cores := half * half // ids [edges+aggs, ...)
	t := &Topology{
		Name: fmt.Sprintf("fat-tree k=%d", k),
		kind: kindFatTree, k: k,
		// Two directed trunks per edge-agg and per agg-core pair: k^3.
		Trunks: make([]Trunk, 0, 2*(edges*half+aggs*half)),
	}
	t.HubPorts = make([]int, edges+aggs+cores)
	for i := range t.HubPorts {
		t.HubPorts[i] = k
	}
	edgeID := func(p, e int) int { return p*half + e }
	aggID := func(p, a int) int { return edges + p*half + a }
	coreID := func(j int) int { return edges + aggs + j }
	for p := 0; p < k; p++ {
		for e := 0; e < half; e++ {
			for a := 0; a < half; a++ {
				// Edge(p,e) port half+a <-> Agg(p,a) port e.
				t.Trunks = append(t.Trunks,
					Trunk{FromHub: edgeID(p, e), FromPort: half + a, ToHub: aggID(p, a), ToPort: e},
					Trunk{FromHub: aggID(p, a), FromPort: e, ToHub: edgeID(p, e), ToPort: half + a})
			}
		}
		for a := 0; a < half; a++ {
			for i := 0; i < half; i++ {
				// Agg(p,a) port half+i <-> Core(a*half+i) port p.
				j := a*half + i
				t.Trunks = append(t.Trunks,
					Trunk{FromHub: aggID(p, a), FromPort: half + i, ToHub: coreID(j), ToPort: p},
					Trunk{FromHub: coreID(j), FromPort: p, ToHub: aggID(p, a), ToPort: half + i})
			}
		}
	}
	n := k * half * half // k^3/4 hosts
	t.NodeHub = make([]int32, n)
	t.NodePort = make([]int32, n)
	perPod := half * half
	for i := 0; i < n; i++ {
		p := i / perPod
		in := i % perPod
		t.NodeHub[i] = int32(edgeID(p, in/half))
		t.NodePort[i] = int32(in % half)
	}
	return t
}

// Hubs returns the number of crossbars.
func (t *Topology) Hubs() int { return len(t.HubPorts) }

// NodeCount returns the number of attachment points.
func (t *Topology) NodeCount() int { return len(t.NodeHub) }

// Tiers returns the number of switching tiers (1 for a star, 2 for
// leaf-spine, 3 for fat-tree).
func (t *Topology) Tiers() int {
	return int(t.kind) + 1
}

// HubPath returns the output-port bytes that carry a packet from crossbar
// src to crossbar dst (empty when src == dst; the caller appends the final
// attachment port). The path is closed-form and deterministic: equal-cost
// choices are spread by arithmetic on the endpoint coordinates.
func (t *Topology) HubPath(src, dst int) ([]byte, bool) {
	if src < 0 || dst < 0 || src >= len(t.HubPorts) || dst >= len(t.HubPorts) {
		return nil, false
	}
	if src == dst {
		return nil, true
	}
	switch t.kind {
	case kindLeafSpine:
		// Only leaf-to-leaf paths exist for node traffic; spreading over
		// spines by the leaf pair keeps the choice deterministic.
		if src >= t.leaves || dst >= t.leaves {
			return nil, false
		}
		s := (src + dst) % t.spines
		return []byte{byte(t.perLeaf + s), byte(dst)}, true
	case kindFatTree:
		half := t.k / 2
		edges := t.k * half
		if src >= edges || dst >= edges {
			return nil, false
		}
		p1, e1 := src/half, src%half
		p2, e2 := dst/half, dst%half
		if p1 == p2 {
			// Same pod: up to a deterministically chosen aggregation
			// switch, back down to the destination edge.
			a := (e1 + e2) % half
			return []byte{byte(half + a), byte(e2)}, true
		}
		// Cross-pod: edge -> agg -> core -> agg -> edge. The agg choice
		// spreads over pod pairs, the core choice over edge pairs.
		a := (p1 + p2) % half
		i := (e1 + e2) % half
		return []byte{byte(half + a), byte(half + i), byte(p2), byte(e2)}, true
	}
	return nil, false
}

// ports returns the per-HUB port offsets, building them on first use:
// every per-port table of the fabric is one flat slice indexed by
// portBase[hub]+port.
func (t *Topology) ports() []int32 {
	if t.portBase == nil {
		base := make([]int32, len(t.HubPorts)+1)
		for h, n := range t.HubPorts {
			base[h+1] = base[h] + int32(n)
		}
		t.portBase = base
	}
	return t.portBase
}

// ensureIndex builds the (hub, port) -> trunk index.
func (t *Topology) ensureIndex() {
	if t.trunkAt != nil {
		return
	}
	base := t.ports()
	idx := make([]int32, base[len(t.HubPorts)])
	for i := range idx {
		idx[i] = -1
	}
	for ti, tr := range t.Trunks {
		idx[base[tr.FromHub]+int32(tr.FromPort)] = int32(ti)
	}
	t.trunkAt = idx
}

// TrunkIndex resolves the trunk leaving hub at output port, if any.
func (t *Topology) TrunkIndex(hub, port int) (int, bool) {
	t.ensureIndex()
	if hub < 0 || hub >= len(t.HubPorts) || port < 0 || port >= t.HubPorts[hub] {
		return 0, false
	}
	ti := t.trunkAt[t.portBase[hub]+int32(port)]
	if ti < 0 {
		return 0, false
	}
	return int(ti), true
}

// Validate checks the topology's structural invariants: port counts within
// the 256-port route-byte limit, trunks and attachments within port bounds,
// and no two uses of the same output port.
func (t *Topology) Validate() error {
	if len(t.HubPorts) == 0 {
		return fmt.Errorf("fabric: topology has no hubs")
	}
	for h, ports := range t.HubPorts {
		if ports < 1 || ports > 256 {
			return fmt.Errorf("fabric: hub %d has %d ports; route bytes allow 1..256", h, ports)
		}
	}
	base := t.ports()
	used := make([]bool, base[len(t.HubPorts)])
	claim := func(hub, port int) error {
		if hub < 0 || hub >= len(t.HubPorts) || port < 0 || port >= t.HubPorts[hub] {
			return fmt.Errorf("fabric: port (hub %d, port %d) out of range", hub, port)
		}
		i := base[hub] + int32(port)
		if used[i] {
			return fmt.Errorf("fabric: output port (hub %d, port %d) used twice", hub, port)
		}
		used[i] = true
		return nil
	}
	for _, tr := range t.Trunks {
		if err := claim(tr.FromHub, tr.FromPort); err != nil {
			return err
		}
		if tr.ToHub < 0 || tr.ToHub >= len(t.HubPorts) || tr.ToPort < 0 || tr.ToPort >= t.HubPorts[tr.ToHub] {
			return fmt.Errorf("fabric: trunk terminates out of range (hub %d, port %d)", tr.ToHub, tr.ToPort)
		}
	}
	if len(t.NodeHub) != len(t.NodePort) {
		return fmt.Errorf("fabric: NodeHub/NodePort length mismatch")
	}
	for i := range t.NodeHub {
		if err := claim(int(t.NodeHub[i]), int(t.NodePort[i])); err != nil {
			return fmt.Errorf("node %d: %v", i, err)
		}
	}
	return nil
}
