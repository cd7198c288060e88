// Package nectar is a faithful reproduction, as a discrete-event-simulated
// Go library, of the system described in "Protocol Implementation on the
// Nectar Communication Processor" (Cooper, Steenkiste, Sansom, Zill;
// SIGCOMM 1990): a high-speed LAN whose host interface is a programmable
// communication processor (the CAB) running a flexible runtime system —
// preemptive priority threads, zero-copy mailboxes, lightweight syncs, and
// a shared-memory host interface — on which TCP/IP and Nectar-specific
// transport protocols execute.
//
// The package provides the cluster builder: it assembles HUB crossbars,
// fiber links, CABs, hosts and VME buses into a topology, boots the
// runtime system and protocol stacks on every node, and computes source
// routes. Everything runs in virtual time on a deterministic simulation
// kernel, with every hardware constant calibrated from the paper (see
// DESIGN.md); protocol code, headers, checksums and buffers are real.
//
// A minimal session:
//
//	cl := nectar.NewCluster(nil)          // default 1990 cost model
//	a := cl.AddNode()                     // host+CAB pair on the HUB
//	b := cl.AddNode()
//	... create mailboxes, run host processes / CAB threads ...
//	cl.Run()                              // drive the simulation
package nectar

import (
	"fmt"
	"sort"

	"nectar/internal/fabric"
	"nectar/internal/hw/cab"
	"nectar/internal/hw/fiber"
	"nectar/internal/hw/host"
	"nectar/internal/hw/hub"
	"nectar/internal/model"
	"nectar/internal/nectarine"
	"nectar/internal/obs"
	"nectar/internal/prof"
	"nectar/internal/proto/datalink"
	"nectar/internal/proto/ip"
	"nectar/internal/proto/nectar"
	"nectar/internal/proto/tcp"
	"nectar/internal/proto/udp"
	"nectar/internal/proto/wire"
	"nectar/internal/rt/hostif"
	"nectar/internal/rt/mailbox"
	"nectar/internal/rt/syncs"
	"nectar/internal/sim"
	"nectar/internal/sockets"
)

// Node is one host/CAB pair with its booted runtime system and protocol
// stacks.
type Node struct {
	ID   wire.NodeID
	CAB  *cab.CAB
	Host *host.Host
	IF   *hostif.IF

	Mailboxes *mailbox.Runtime
	Syncs     *syncs.Pool
	Datalink  *datalink.Layer

	Transports *nectar.Transports // datagram, RMP, RRP
	IP         *ip.Layer
	UDP        *udp.Layer
	TCP        *tcp.Layer

	API     *nectarine.API // the application interface (paper §3.5)
	Sockets *sockets.API   // the Berkeley-socket emulation (paper §5.2)

	idx int // attachment point in the cluster's topology
}

// Config adjusts cluster construction.
type Config struct {
	Cost *model.CostModel // nil: model.Default1990()
	// RxThreadMode selects the §3.1 ablation: protocol input processing
	// in a high-priority thread instead of at interrupt time.
	RxThreadMode bool
	// Topology is the HUB fabric, as data. The cluster creates every
	// crossbar and trunk fiber of the fabric up front and registers each
	// attachment point as a *compact* node — a few bytes of arena state
	// (hub, port, shard) instead of a booted protocol stack. Node(i)
	// materializes the full host/CAB pair at attachment point i on first
	// use, and AddNode at the lowest free one, so a 100k-node fabric fits
	// in memory and only the nodes that actually carry traffic (declared
	// by Flows, typically) pay for stacks. nil: fabric.Star(
	// hub.DefaultPorts), the paper's single 16-port HUB.
	Topology *fabric.Topology
	// CABDataBytes overrides each CAB's packet-memory size (0: the
	// default 1 MB). Scale experiments shrink it so tens of thousands of
	// materialized nodes fit in host memory.
	CABDataBytes int

	// Shards is the number of domains of the cluster's coupling (see
	// internal/sim's Coupling): nodes are partitioned into per-shard
	// simulation kernels that run concurrently on OS threads under a
	// conservative time-window scheduler. The HUB setup latency on
	// cross-shard fiber paths is the scheduler's lookahead, so results
	// are byte-identical for every shard count. Clusters of more than one
	// shard cannot open circuits (zero lookahead). 0 or 1 (the default)
	// is a one-domain coupling: the same window loop, run by the caller
	// of Run/RunFor with no worker goroutines.
	Shards int
	// ShardOf maps a node's attachment index to its shard in
	// [0, Shards). nil: round-robin (index % Shards). It is consulted
	// lazily, once per index, and only for materialized nodes and Flows
	// endpoints of a cluster of more than one shard. Placing the two
	// ends of a busy flow on different shards is what buys parallelism;
	// placing chatty neighbors together minimizes window overhead.
	ShardOf func(nodeIdx int) int
	// Flows, when non-nil, declares the COMPLETE communication graph of
	// the workload as node-index pairs: node i may exchange frames with
	// node j only if {i,j} (in either order) appears here. The
	// declaration is a contract — routes exist only between declared
	// peers, and a send to an undeclared destination panics
	// deterministically at the route miss — and it is what makes sharded
	// execution win: a gateway whose declared peers all live on its own
	// shard can never emit cross-shard, so it stops constraining the
	// safe bound entirely, and a flow-affinity partition (ShardByFlows
	// over the same list) runs whole scheduling horizons per window
	// instead of one transmit-latency margin. nil: any node may talk to
	// any node (the conservative default).
	Flows [][2]int
}

// Cluster is a simulated Nectar installation.
type Cluster struct {
	// K is shard 0's simulation kernel — the only one with one shard —
	// which also hosts cluster-wide metrics (HUB gauges). Use
	// Run/RunFor/Now on the Cluster, not K directly, so all shards
	// advance.
	K    *sim.Kernel
	Cost *model.CostModel
	Hubs []*hub.Hub

	// Nodes holds the materialized nodes in materialization order (wire
	// ID i+1 is Nodes[i]).
	Nodes []*Node

	cfg Config

	// Shared deduplicated route table over the topology's closed-form
	// router: every CAB route entry is a reference into it (one string
	// per (srcHub, dstHub, dstPort) triple).
	routeTab *fabric.RouteTable

	// Fabric state. mat holds the materialized node at each attachment
	// point (nil = compact), free the lowest attachment point AddNode may
	// still fill; trunks holds the directed inter-HUB links in
	// fabric.Trunks order.
	topo       *fabric.Topology
	mat        []*Node
	free       int
	trunks     []*fiber.Link
	trunkOwner []int32 // directed trunk -> owning shard; nil with one shard

	// Execution: the coupling of one domain per shard.
	coupling  *sim.Coupling
	domains   []*sim.Domain // one per shard
	nodeShard []int32       // node index -> shard+1, memoized by shard (0 = not yet asked); nil with one shard
	uplinks   []*fiber.Link // node index -> its CAB->HUB link (the shard gateway); nil = compact

	// Declared traffic matrix (Config.Flows): node index -> set of peer
	// node indices it may exchange frames with. nil when undeclared.
	flowPeers []map[int]bool
}

// NewCluster creates a cluster over Config.Topology — one 16-port HUB by
// default — with the given configuration (pass nil for defaults).
func NewCluster(cfg *Config) *Cluster {
	c := Config{}
	if cfg != nil {
		c = *cfg
	}
	if c.Cost == nil {
		c.Cost = model.Default1990()
	}
	if c.Topology == nil {
		c.Topology = fabric.Star(hub.DefaultPorts)
	}
	cl := &Cluster{Cost: c.Cost, cfg: c}
	if c.Flows != nil {
		n := 0
		for _, f := range c.Flows {
			if f[0] < 0 || f[1] < 0 {
				sim.Panicf("nectar: Flows entry %v has a negative node index", f)
			}
			if f[0] >= n {
				n = f[0] + 1
			}
			if f[1] >= n {
				n = f[1] + 1
			}
		}
		cl.flowPeers = make([]map[int]bool, n)
		for _, f := range c.Flows {
			for _, i := range f {
				if cl.flowPeers[i] == nil {
					cl.flowPeers[i] = map[int]bool{}
				}
			}
			cl.flowPeers[f[0]][f[1]] = true
			cl.flowPeers[f[1]][f[0]] = true
		}
	}
	cl.coupling = sim.NewCoupling()
	for range max(c.Shards, 1) {
		cl.domains = append(cl.domains, cl.coupling.AddDomain(sim.NewKernel()))
	}
	cl.K = cl.domains[0].Kernel()
	cl.buildFabric(c.Topology)
	return cl
}

// AddNode materializes the node at the lowest attachment point that has
// none yet — on the default star, the next free HUB port. It panics when
// every attachment point holds a node.
func (cl *Cluster) AddNode() *Node {
	for cl.free < len(cl.mat) && cl.mat[cl.free] != nil {
		cl.free++
	}
	if cl.free == len(cl.mat) {
		sim.Panicf("nectar: %s out of ports: all %d attachment points hold nodes", cl.topo.Name, len(cl.mat))
	}
	return cl.materialize(cl.free)
}

// bootNode builds and boots the full host/CAB pair for attachment point
// idx: hardware, fibers with their gateway role, runtime system and
// protocol stacks. Route installation is the caller's job.
//
// The whole node — CAB, host, interface, runtime, protocol stacks, and
// both of its fiber endpoints — is built on its shard's kernel: the
// CAB->HUB uplink and the HUB input port it feeds run on the node's shard,
// and the HUB output link back to the CAB runs there too, so the only
// events that ever cross shards are HUB forwards (which carry the setup
// latency, the coupling's lookahead).
func (cl *Cluster) bootNode(idx int) *Node {
	id := wire.NodeID(len(cl.Nodes) + 1)
	hubIdx, port := int(cl.topo.NodeHub[idx]), int(cl.topo.NodePort[idx])

	dom := cl.domains[cl.shard(idx)]
	k := dom.Kernel()

	c := cab.NewSized(k, cl.Cost, id, cl.cfg.CABDataBytes)
	if cl.cfg.RxThreadMode {
		c.SetRxInterruptMode(false)
	}
	h := host.New(k, cl.Cost, fmt.Sprintf("host%d", id), c)
	f := hostif.New(h, c)

	// Fibers: CAB -> hub input port, hub output port -> CAB.
	hb := cl.Hubs[hubIdx]
	up := fiber.NewLink(k, cl.Cost, fmt.Sprintf("cab%d->hub%d", id, hubIdx), hb.InPortOn(port, dom))
	c.ConnectFiber(up)
	hb.ConnectOut(port, fiber.NewLink(k, cl.Cost, fmt.Sprintf("hub%d.%d->cab%d", hubIdx, port, id), c))
	hb.SetOutDomain(port, dom)
	if len(cl.domains) > 1 {
		// The uplink is the shard's gateway: every cross-shard forward
		// is of a packet it delivered to the HUB input port, so its
		// earliest-output bound (delivery + HubSetup) covers them all.
		// The cross closure resolves the next route hop to the shard it
		// forwards into, giving the coupling one safe bound per
		// destination shard (per-channel lookahead). On multi-HUB
		// fabrics the hop may enter a trunk, whose owning shard the
		// HUB's output-domain table resolves the same way.
		up.SetGateway(sim.Duration(cl.Cost.HubSetup), crossFn(hb, dom))
		// Transmit-preparation floor: every frame this CAB can put on the
		// uplink goes through datalink.Send, which consumes DatalinkProcess
		// + DMASetup of CAB CPU time between the event that triggers it
		// and the fiber transmission (and brackets that compute with
		// BeginTxPrep/EndTxPrep). So with no preparation in flight, no
		// frame can start before the domain's activity floor plus that
		// margin; with one in flight, none can start before the earliest
		// outstanding ready time. This margin — not the 700 ns HUB setup —
		// is what grows safe windows enough for sharding to win.
		margin := sim.Time(cl.Cost.DatalinkProcess + cl.Cost.DMASetup)
		up.SetTxFloor(func(actFloor sim.Time) sim.Time {
			e := actFloor + margin
			if at, ok := c.TxReadyAt(); ok && at < e {
				e = at
			}
			return e
		})
		if cl.flowPeers != nil {
			// Declared channel topology: this gateway only constrains the
			// safe bound of the domains the *first* forward after this
			// node's HUB can enter (same-HUB peers resolve to their shard,
			// farther peers to the owner of the path's first trunk; later
			// hops are covered by trunk gateways). With a flow-affinity
			// partition that is no domain at all, and windows stretch to
			// the scheduling horizon. Precomputed into a bitmap — the
			// closure runs per (gateway, destination) in every window
			// choose phase.
			reach := cl.firstHopReach(idx)
			up.SetReach(func(dstDom int) bool {
				return dstDom >= 0 && dstDom < len(reach) && reach[dstDom]
			})
		}
		dom.AddGateway(up)
	}
	cl.uplinks[idx] = up
	if cl.flowPeers != nil {
		// The declaration is enforced on every send, whatever the shard
		// count, so a violating workload fails identically at every
		// count instead of silently desynchronizing them. Routes exist
		// only between declared peers, so the violation shows as a
		// route miss.
		c.OnRouteMiss(func(dst wire.NodeID) {
			if j := int(dst) - 1; j >= 0 && j < len(cl.Nodes) && !cl.trafficAllowed(idx, cl.Nodes[j].idx) {
				sim.Panicf("nectar: node %d sent a frame toward node %d, which Config.Flows does not declare", idx, cl.Nodes[j].idx)
			}
		})
	}

	// Runtime system.
	mrt := mailbox.NewRuntime(c)
	mrt.AttachHost(f)
	pool := syncs.NewPool(f)
	dl := datalink.NewLayer(c, mrt)

	n := &Node{
		ID: id, CAB: c, Host: h, IF: f,
		Mailboxes: mrt, Syncs: pool, Datalink: dl,
		idx: idx,
	}

	// Protocol stacks.
	n.Transports = nectar.Attach(dl, mrt)
	n.IP = ip.NewLayer(dl, mrt)
	n.UDP = udp.NewLayer(n.IP, mrt)
	n.TCP = tcp.NewLayer(n.IP, mrt)
	n.API = nectarine.New(n.Mailboxes, n.Syncs, n.Transports, n.Host)
	n.Sockets = sockets.New(n.TCP, n.Mailboxes, n.IF, n.Syncs)

	cl.Nodes = append(cl.Nodes, n)
	return n
}

// crossFn builds the gateway cross-resolution closure for a link feeding
// an input port of hb on domain own: a route byte crosses shards when the
// HUB output port it names is owned by another domain. Unconnected or
// out-of-range ports resolve local and fail with a routing diagnostic when
// the forward executes.
func crossFn(hb *hub.Hub, own *sim.Domain) func(out byte) (int, bool) {
	return func(out byte) (int, bool) {
		d := hb.OutDomain(int(out))
		if d == nil || d == own {
			return 0, false
		}
		return d.ID(), true
	}
}

// RouteTableStats reports the shared route table's deduplicated size:
// distinct route strings and their total bytes. Every CAB route entry is a
// reference into this table.
func (cl *Cluster) RouteTableStats() (entries, bytes int) {
	return cl.routeTab.Entries(), cl.routeTab.Bytes()
}

// shard returns node i's shard (0 with one shard): Config.ShardOf, or
// round-robin, asked on first use and memoized, so only the nodes the
// cluster actually touches — materialized nodes and declared-flow
// endpoints — are ever looked up.
func (cl *Cluster) shard(i int) int {
	if cl.nodeShard == nil {
		return 0
	}
	if s := cl.nodeShard[i]; s != 0 {
		return int(s) - 1
	}
	s := i % len(cl.domains)
	if cl.cfg.ShardOf != nil {
		s = cl.cfg.ShardOf(i)
		if s < 0 || s >= len(cl.domains) {
			sim.Panicf("nectar: ShardOf(%d) = %d out of range [0,%d)", i, s, len(cl.domains))
		}
	}
	cl.nodeShard[i] = int32(s) + 1
	return s
}

// ShardByFlows builds a topology-aware Config.ShardOf assignment from the
// traffic pattern: flows lists pairs of node (attachment) indices expected to exchange most of the traffic, and the builder places both
// endpoints of every flow — transitively, whole connected components of
// the flow graph — on the same shard, balancing components across shards
// by node count. Chatty neighbors thus never pay the cross-shard barrier,
// while independent flows spread out to run in parallel; blind round-robin
// does the exact opposite (it splits every adjacent pair).
//
// The assignment is deterministic: components are considered in ascending
// order of their smallest node index and go to the least-loaded shard,
// lowest index first on ties. Nodes in no flow are singleton components.
func ShardByFlows(nodes, shards int, flows [][2]int) func(nodeIdx int) int {
	assign := assignComponents(nodes, shards, flows, nil)
	return func(nodeIdx int) int { return assign[nodeIdx] }
}

// ShardByFlowsOnFabric is ShardByFlows made locality-aware across HUB
// tiers: flow components are placed in ascending order of their root's
// edge crossbar, and a component whose crossbar already has components on
// some shard joins that shard as long as its load stays within the
// balanced ideal (ceil(nodes/shards)) — pure least-loaded packing would
// split same-leaf components across shards every time sizes tie. On a
// fabric cluster that concentrates each shard's traffic on shard-owned
// trunks, which is what empties the trunk gateways' cross-shard reach and
// lets safe windows stretch to the horizon.
func ShardByFlowsOnFabric(topo *fabric.Topology, shards int, flows [][2]int) func(nodeIdx int) int {
	assign := assignComponents(topo.NodeCount(), shards, flows, func(root int) int {
		return int(topo.NodeHub[root])
	})
	return func(nodeIdx int) int { return assign[nodeIdx] }
}

// assignComponents unions the flow graph's connected components and packs
// them onto shards least-loaded-first. Components are considered in
// ascending (locality(root), root) order — locality nil means node-index
// order — and ties go to the lowest shard, so the assignment is fully
// deterministic. With a locality, a component additionally prefers the
// shard its locality group last landed on, as long as that shard's load
// stays within the balanced ideal.
func assignComponents(nodes, shards int, flows [][2]int, locality func(root int) int) []int {
	if shards < 1 {
		shards = 1
	}
	// Union-find with union-by-minimum: a component's root is its
	// smallest member, making component order deterministic.
	parent := make([]int, nodes)
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, f := range flows {
		a, b := find(f[0]), find(f[1])
		if a != b {
			if b < a {
				a, b = b, a
			}
			parent[b] = a
		}
	}
	size := make([]int, nodes) // per root
	roots := make([]int, 0, nodes)
	for i := 0; i < nodes; i++ {
		r := find(i)
		if size[r] == 0 {
			roots = append(roots, r)
		}
		size[r]++
	}
	if locality != nil {
		// Stable by construction: roots are distinct, so the (locality,
		// root) key is unique.
		sortRootsBy(roots, locality)
	}
	assign := make([]int, nodes)
	load := make([]int, shards)
	shardOfRoot := make([]int, nodes)
	ideal := (nodes + shards - 1) / shards
	lastShard := map[int]int{} // locality group -> shard it last landed on
	for _, r := range roots {
		s := -1
		if locality != nil {
			if p, ok := lastShard[locality(r)]; ok && load[p]+size[r] <= ideal {
				s = p
			}
		}
		if s < 0 {
			s = 0
			for j := 1; j < shards; j++ {
				if load[j] < load[s] {
					s = j
				}
			}
		}
		if locality != nil {
			lastShard[locality(r)] = s
		}
		shardOfRoot[r] = s
		load[s] += size[r]
	}
	for i := 0; i < nodes; i++ {
		assign[i] = shardOfRoot[find(i)]
	}
	return assign
}

// sortRootsBy orders component roots by (locality, root) ascending.
func sortRootsBy(roots []int, locality func(root int) int) {
	sort.Slice(roots, func(i, j int) bool {
		li, lj := locality(roots[i]), locality(roots[j])
		if li != lj {
			return li < lj
		}
		return roots[i] < roots[j]
	})
}

// trafficAllowed reports whether the declared traffic matrix permits
// frames between nodes src and dst (always true when undeclared).
func (cl *Cluster) trafficAllowed(src, dst int) bool {
	if cl.flowPeers == nil || src == dst {
		return true
	}
	if src >= len(cl.flowPeers) || cl.flowPeers[src] == nil {
		return false
	}
	return cl.flowPeers[src][dst]
}

// Shards returns the number of execution shards.
func (cl *Cluster) Shards() int { return len(cl.domains) }

// Windows reports how many conservative safe windows the coupling
// scheduler has executed. With one shard nothing bounds a window but the
// horizon, so a run counts one window per Run/RunFor call with pending
// events.
func (cl *Cluster) Windows() uint64 { return cl.coupling.Windows() }

// MultiWindows reports how many safe windows had more than one active
// shard.
func (cl *Cluster) MultiWindows() uint64 { return cl.coupling.MultiWindows() }

// ShardOfNode returns the shard executing node i.
func (cl *Cluster) ShardOfNode(i int) int { return cl.shard(i) }

// Kernels returns every simulation kernel of the cluster, one per shard;
// K is the first. Per-shard observability (trace sinks, wire captures) is
// installed by attaching to each kernel's observer.
func (cl *Cluster) Kernels() []*sim.Kernel {
	ks := make([]*sim.Kernel, len(cl.domains))
	for i, d := range cl.domains {
		ks[i] = d.Kernel()
	}
	return ks
}

// EnableProfiling attaches a wall-clock profile to the coupling scheduler
// and returns it (nil, and a no-op, with one shard — the profiler measures
// where the seconds of a *sharded* run go, and one domain has no barrier).
// Call before Run/RunFor; profiling does not perturb virtual time, so
// results remain byte-identical to an unprofiled run.
func (cl *Cluster) EnableProfiling() *prof.Profile {
	if len(cl.domains) == 1 {
		return nil
	}
	p := prof.New(len(cl.domains))
	cl.coupling.SetProfile(p)
	return p
}

// ProfileReport exports the attached wall-clock profile with the
// cluster-level sampling counters filled in: total kernel dispatches
// across shards, wire-path traffic, and cross-shard frames. It returns
// nil when profiling was never enabled, and must only be called between
// runs (the coupling's worker-join barrier orders the collector reads).
func (cl *Cluster) ProfileReport() *prof.Report {
	r := cl.coupling.Profile().Report()
	if r == nil {
		return nil
	}
	r.VirtualNS = cl.Now().Nanos()
	// Wire traffic is the fiber gauges' sum, the value a snapshot would
	// report, read straight from the sources without building one.
	wire := func(layer obs.Layer, name, _ string, v uint64) {
		if layer != obs.LayerFiber {
			return
		}
		switch name {
		case "frames":
			r.WireFrames += v
		case "bytes":
			r.WireBytes += v
		}
	}
	for _, d := range cl.domains {
		r.KernelDispatches += d.Kernel().Dispatched()
		obs.Ensure(d.Kernel()).Metrics().Gauges(wire)
	}
	r.CrossShardFrames = cl.CrossShardFrames()
	return r
}

// CrossShardFrames sums, over every gateway link (node uplinks and fabric
// trunks), the frames that left their shard through the coupling. Zero
// with one shard; only call between runs.
func (cl *Cluster) CrossShardFrames() uint64 {
	var n uint64
	for _, up := range cl.uplinks {
		if up != nil { // compact (unmaterialized) attachment points
			n += up.CrossShardFrames()
		}
	}
	for _, tr := range cl.trunks {
		n += tr.CrossShardFrames()
	}
	return n
}

// MetricsSnapshot exports the cluster's metrics at the current virtual
// time. The per-shard registries are merged (sums of counters and gauges,
// bucket-level histogram merges) into one snapshot that is byte-identical
// for every shard count.
func (cl *Cluster) MetricsSnapshot() *obs.Snapshot {
	regs := make([]*obs.Registry, len(cl.domains))
	for i, d := range cl.domains {
		regs[i] = obs.Ensure(d.Kernel()).Metrics()
	}
	return obs.MergeSnapshots(cl.Now(), regs...)
}

// Run drives the simulation until no events remain. It fails on deadlock
// or a model panic. Clusters with server threads never drain; use RunFor.
func (cl *Cluster) Run() error { return cl.coupling.Run() }

// RunFor drives the simulation for d of virtual time.
func (cl *Cluster) RunFor(d sim.Duration) error { return cl.coupling.RunFor(d) }

// Now returns the current virtual time.
func (cl *Cluster) Now() sim.Time { return cl.coupling.Now() }
