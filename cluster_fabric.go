package nectar

import (
	"strconv"
	"strings"

	"nectar/internal/fabric"
	"nectar/internal/hw/fiber"
	"nectar/internal/hw/hub"
	"nectar/internal/obs"
	"nectar/internal/sim"
)

// This file realizes the cluster's fabric.Topology: the whole HUB fabric —
// crossbars and trunk fibers — is built up front from data, while nodes
// stay *compact* (a few bytes of arena state per attachment point) until
// Node(i) or AddNode materializes a full host/CAB pair.
//
// The fabric is built as slabs, one allocation per kind of object rather
// than one per object: the HUBs are one hub.Slab with all their port
// tables in one more, the trunks one fiber.Links, and every HUB and trunk
// name is cut from one string. Each slab registers its gauges once, as
// one obs.Source, so a 4,096-trunk fabric adds two registry entries.
//
// A fabric of more than one shard assigns every directed trunk an owning
// shard: the trunk's link and the input port it feeds run on the owner's
// kernel, and trunks whose forwards can enter another shard register as
// gateways with the coupling, bounding cross-shard output per destination
// exactly like node uplinks do. Ownership follows the declared flows
// (majority of traversing traffic, by source shard), so a flow-affinity
// partition leaves most trunks with an empty cross-shard reach — they stop
// constraining safe windows entirely.

// buildFabric creates hubs, trunks and the compact node arena from the
// validated topology. Called once from NewCluster.
func (cl *Cluster) buildFabric(topo *fabric.Topology) {
	if err := topo.Validate(); err != nil {
		panic("nectar: " + err.Error())
	}
	cl.topo = topo
	cl.routeTab = fabric.NewRouteTable(topo)
	n := topo.NodeCount()
	if cl.flowPeers != nil && len(cl.flowPeers) > n {
		sim.Panicf("nectar: Config.Flows references node %d; the topology has %d attachment points",
			len(cl.flowPeers)-1, n)
	}
	names := newFabricNames(topo)
	hubNames := make([]string, len(topo.HubPorts))
	for i := range hubNames {
		hubNames[i] = names.hub(i)
	}
	hubs := hub.NewSlab(cl.K, cl.Cost, hubNames, topo.HubPorts)
	cl.Hubs = make([]*hub.Hub, len(hubs))
	for i := range hubs {
		if len(cl.domains) > 1 {
			hubs[i].SetSharded()
		}
		cl.Hubs[i] = &hubs[i]
	}

	// The compact node arena: materialized pointer and (with more than
	// one shard) memoized shard per attachment point. Everything else a
	// node needs before it first carries traffic lives in the topology's
	// own arrays (hub, port).
	cl.mat = make([]*Node, n)
	var reach [][]bool
	if len(cl.domains) > 1 {
		cl.nodeShard = make([]int32, n)
		var gateways int
		cl.trunkOwner, reach, gateways = cl.planTrunks()
		cl.gateways = make([]fiber.Gateway, gateways)
	}
	gws := cl.gateways
	cl.trunks = make(fiber.Links, len(topo.Trunks))
	if len(cl.trunks) > 0 {
		// Each trunk runs on its owner's kernel; the slab's gauges sum
		// into the merged snapshot from any one registry.
		obs.Ensure(cl.K).Metrics().Register(cl.trunks)
	}
	for ti, tr := range topo.Trunks {
		dom := cl.domains[0]
		if cl.trunkOwner != nil {
			dom = cl.domains[cl.trunkOwner[ti]]
		}
		l := &cl.trunks[ti]
		l.Init(dom.Kernel(), cl.Cost, names.trunk(tr), cl.Hubs[tr.ToHub].InPortOn(tr.ToPort, dom))
		cl.Hubs[tr.FromHub].ConnectOut(tr.FromPort, l)
		cl.Hubs[tr.FromHub].SetOutDomain(tr.FromPort, dom)
		if len(cl.domains) == 1 {
			continue // one shard: no gateways
		}
		// Gateway role. With declared flows, only trunks whose forwards
		// can actually enter another shard are gateways (reach non-nil):
		// the rest provably never emit cross-shard, and skipping them
		// keeps the coupling's choose phase O(active gateways), not
		// O(trunks), on 262k-trunk fabrics. Without declared flows every
		// trunk is a gateway with unrestricted reach.
		var rb []bool
		if reach != nil {
			if rb = reach[ti]; rb == nil {
				continue
			}
		}
		gws[0].Init(l, nil, rb)
		dom.AddGateway(&gws[0])
		gws = gws[1:]
	}
}

// fabricNames cuts a fabric's HUB names ("hub<i>") and trunk names
// ("hub<a>.<p>->hub<b>"), byte for byte the names fmt.Sprintf gives, from
// one buffer sized up front for all of them. A name is a substring of the
// buffer's bytes, which later writes only append to.
type fabricNames struct {
	b   strings.Builder
	num [20]byte
}

func newFabricNames(topo *fabric.Topology) *fabricNames {
	size := 0
	for i := range topo.HubPorts {
		size += hubNameLen(i)
	}
	for _, tr := range topo.Trunks {
		size += trunkNameLen(tr)
	}
	f := new(fabricNames)
	f.b.Grow(size)
	return f
}

// hub returns HUB i's name.
func (f *fabricNames) hub(i int) string {
	start := f.b.Len()
	f.writeHub(i)
	return f.b.String()[start:]
}

// trunk returns trunk tr's name.
func (f *fabricNames) trunk(tr fabric.Trunk) string {
	start := f.b.Len()
	f.writeHub(tr.FromHub)
	f.b.WriteByte('.')
	f.b.Write(strconv.AppendInt(f.num[:0], int64(tr.FromPort), 10))
	f.b.WriteString("->")
	f.writeHub(tr.ToHub)
	return f.b.String()[start:]
}

func (f *fabricNames) writeHub(i int) {
	f.b.WriteString("hub")
	f.b.Write(strconv.AppendInt(f.num[:0], int64(i), 10))
}

// hubNameLen is the length of HUB i's name.
func hubNameLen(i int) int { return len("hub") + digits(i) }

// trunkNameLen is the length of trunk tr's name.
func trunkNameLen(tr fabric.Trunk) int {
	return hubNameLen(tr.FromHub) + len(".") + digits(tr.FromPort) + len("->") + hubNameLen(tr.ToHub)
}

// digits is the number of decimal digits of v >= 0.
func digits(v int) int {
	n := 1
	for ; v >= 10; v /= 10 {
		n++
	}
	return n
}

// planTrunks assigns every directed trunk an owning shard, computes its
// cross-shard reach and counts the trunks that need a gateway. Ownership
// is by majority vote of the declared flows traversing the trunk (voting
// with the flow's source shard; ties to the lowest shard), so with a
// flow-affinity partition a trunk is owned by the shard whose traffic
// uses it. reach[ti] is the set of domains the next forward after trunk
// ti can enter over declared flows — nil when every next hop stays on the
// owner (the trunk then needs no gateway at all). With undeclared traffic
// owner and reach are nil: every trunk stays on shard 0 with an
// unrestricted gateway.
func (cl *Cluster) planTrunks() (owner []int32, reach [][]bool, gateways int) {
	nt := len(cl.topo.Trunks)
	if cl.flowPeers == nil {
		return nil, nil, nt
	}
	owner = make([]int32, nt)
	shards := len(cl.domains)
	votes := make([]int32, nt*shards)
	cl.eachFlowDirection(func(src, dst int) {
		s := cl.shard(src)
		cl.walkTrunks(src, dst, func(ti int) {
			votes[ti*shards+s]++
		})
	})
	for ti := 0; ti < nt; ti++ {
		best, bv := 0, int32(0)
		for s := 0; s < shards; s++ {
			if v := votes[ti*shards+s]; v > bv {
				best, bv = s, v
			}
		}
		owner[ti] = int32(best)
	}
	reach = make([][]bool, nt)
	cl.eachFlowDirection(func(src, dst int) {
		var seq []int
		cl.walkTrunks(src, dst, func(ti int) { seq = append(seq, ti) })
		for pos, ti := range seq {
			next := int32(cl.shard(dst))
			if pos+1 < len(seq) {
				next = owner[seq[pos+1]]
			}
			if next != owner[ti] {
				if reach[ti] == nil {
					reach[ti] = make([]bool, shards)
					gateways++
				}
				reach[ti][next] = true
			}
		}
	})
	return owner, reach, gateways
}

// eachFlowDirection visits every declared flow in both directions (frames
// flow both ways — acknowledgments at minimum), skipping self-loops, in
// Config.Flows order: deterministic, unlike ranging over the peer sets.
func (cl *Cluster) eachFlowDirection(visit func(src, dst int)) {
	for _, f := range cl.cfg.Flows {
		if f[0] == f[1] {
			continue
		}
		visit(f[0], f[1])
		visit(f[1], f[0])
	}
}

// walkTrunks visits the directed trunks on the fabric route from node src
// to node dst, in hop order (none when they share a crossbar).
func (cl *Cluster) walkTrunks(src, dst int, visit func(trunkIdx int)) {
	topo := cl.topo
	at := int(topo.NodeHub[src])
	path, ok := topo.HubPath(at, int(topo.NodeHub[dst]))
	if !ok {
		sim.Panicf("nectar: no fabric path between nodes %d and %d", src, dst)
	}
	for _, p := range path {
		ti, ok := topo.TrunkIndex(at, int(p))
		if !ok {
			sim.Panicf("nectar: fabric route byte %d at hub %d names no trunk", p, at)
		}
		visit(ti)
		at = topo.Trunks[ti].ToHub
	}
}

// firstHopReach computes the set of domains the first forward after node
// idx's crossbar can enter, over its declared peers: a same-HUB peer
// resolves to the peer's shard, a farther peer to the owner of the path's
// first trunk. Later hops are covered by trunk gateways. Used as the
// node's uplink gateway reach on fabrics of more than one shard.
func (cl *Cluster) firstHopReach(idx int) []bool {
	reach := make([]bool, len(cl.domains))
	topo := cl.topo
	srcHub := int(topo.NodeHub[idx])
	if idx < len(cl.flowPeers) {
		for peer := range cl.flowPeers[idx] {
			if int(topo.NodeHub[peer]) == srcHub {
				reach[cl.shard(peer)] = true
				continue
			}
			if path, ok := topo.HubPath(srcHub, int(topo.NodeHub[peer])); ok && len(path) > 0 {
				if ti, ok := topo.TrunkIndex(srcHub, int(path[0])); ok {
					reach[cl.trunkOwner[ti]] = true
				}
			}
		}
	}
	return reach
}

// reachesOther reports whether a gateway of domain own with reach (nil:
// every domain) can emit into some other domain.
func reachesOther(reach []bool, own int) bool {
	if reach == nil {
		return true
	}
	for d, r := range reach {
		if r && d != own {
			return true
		}
	}
	return false
}

// Node returns the node at attachment point i, materializing the full
// host/CAB pair on first use — wire IDs, trace names and routes follow
// materialization order, so workloads that must compare byte-identically
// across runs materialize their nodes in the same order. With more than
// one shard, materialize before the first Run/RunFor: gateways register
// with the coupling at boot.
func (cl *Cluster) Node(i int) *Node {
	if i < 0 || i >= len(cl.mat) {
		sim.Panicf("nectar: node %d out of range; the topology has %d attachment points", i, len(cl.mat))
	}
	if n := cl.mat[i]; n != nil {
		return n
	}
	return cl.materialize(i)
}

// materialize boots the full node at attachment point i and installs the
// routes between it and every relevant peer that is already materialized:
// its declared peers, or every node when Flows is nil. Routes depend only
// on attachment coordinates, so both directions can be installed as soon
// as the second endpoint exists; compact nodes never transmit (they have
// no stack), so they need no entries at all.
func (cl *Cluster) materialize(i int) *Node {
	n := cl.bootNode(i)
	cl.mat[i] = n
	cl.setRoute(n, n) // loopback via the crossbar
	link := func(p *Node) {
		cl.setRoute(n, p)
		cl.setRoute(p, n)
	}
	if cl.flowPeers != nil {
		if i < len(cl.flowPeers) {
			for peer := range cl.flowPeers[i] {
				if p := cl.mat[peer]; p != nil && p != n {
					link(p)
				}
			}
		}
	} else {
		for _, p := range cl.Nodes {
			if p != n {
				link(p)
			}
		}
	}
	return n
}

// setRoute installs src's source route to dst from the shared route table.
func (cl *Cluster) setRoute(src, dst *Node) {
	t := cl.topo
	if r, ok := cl.routeTab.Route(int(t.NodeHub[src.idx]), int(t.NodeHub[dst.idx]), int(t.NodePort[dst.idx])); ok {
		src.CAB.SetRoute(dst.ID, r)
	}
}

// NodeCount returns the number of attachment points.
func (cl *Cluster) NodeCount() int { return len(cl.mat) }

// MaterializedNodes reports how many nodes have a booted protocol stack.
func (cl *Cluster) MaterializedNodes() int { return len(cl.Nodes) }

// Topology returns the fabric this cluster was built from.
func (cl *Cluster) Topology() *fabric.Topology { return cl.topo }
