package nectar

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"nectar/internal/fabric"
	"nectar/internal/obs"
	"nectar/internal/proto/wire"
	"nectar/internal/rt/exec"
	"nectar/internal/rt/threads"
	"nectar/internal/sim"
)

// fabricOpts varies the execution shape of runFabricWorkload without
// touching the simulated workload.
type fabricOpts struct {
	shardOf func(nodeIdx int) int
	declare bool
}

// runFabricWorkload drives a leaf-spine fabric — 4 leaves x 2 spines, 2
// hosts per leaf — with three RMP flows that each cross two HUB tiers
// (leaf -> spine -> leaf), under deterministic fault injection on every
// uplink, and returns the canonicalized observability output. shards=1
// runs the identical workload sequentially.
func runFabricWorkload(t *testing.T, shards int, seed uint64, opts ...fabricOpts) shardedWorkloadResult {
	t.Helper()
	var opt fabricOpts
	if len(opts) > 0 {
		opt = opts[0]
	}
	// Leaves hold nodes {0,1} {2,3} {4,5} {6,7}; every flow spans leaves.
	flows := [][2]int{{0, 2}, {4, 6}, {1, 7}}
	endpoints := []int{0, 1, 2, 4, 6, 7}

	cfg := &Config{Topology: fabric.LeafSpine(4, 2, 2), Shards: shards, ShardOf: opt.shardOf}
	if opt.declare {
		cfg.Flows = flows
	}
	cl := NewCluster(cfg)

	// Materialize the flow endpoints in a fixed order: wire IDs and trace
	// names follow materialization order, so both runs must agree on it.
	nodes := make(map[int]*Node, len(endpoints))
	for _, i := range endpoints {
		nodes[i] = cl.Node(i)
	}

	kernels := cl.Kernels()
	recs := make([]*obs.Recorder, len(kernels))
	taps := make([]*obs.Capture, len(kernels))
	for i, k := range kernels {
		o := obs.Ensure(k)
		recs[i] = &obs.Recorder{}
		o.SetSink(recs[i])
		taps[i] = &obs.Capture{}
		o.SetCapture(taps[i])
	}

	for _, i := range endpoints {
		nodes[i].CAB.OutLink().SetFaultFn(func(seq uint64) (drop, corrupt bool) {
			return (seq+seed)%7 == 3, (seq+3*seed)%11 == 5
		})
	}

	const perFlow = 16
	done := make([]bool, len(flows))
	for fi, f := range flows {
		fi, src, dst := fi, nodes[f[0]], nodes[f[1]]
		sink := dst.Mailboxes.Create(fmt.Sprintf("flow%d.sink", fi))
		sink.SetCapacity(1 << 20)
		addr := wire.MailboxAddr{Node: dst.ID, Box: sink.ID()}
		dst.CAB.Sched.Fork("drain", threads.SystemPriority, func(th *threads.Thread) {
			ctx := exec.OnCAB(th)
			for n := 0; n < perFlow; n++ {
				m := sink.BeginGet(ctx)
				sink.EndGet(ctx, m)
			}
			done[fi] = true
		})
		src.CAB.Sched.Fork("blast", threads.SystemPriority, func(th *threads.Thread) {
			ctx := exec.OnCAB(th)
			payload := make([]byte, 256)
			for i := range payload {
				payload[i] = byte(uint64(i) * (seed + uint64(fi) + 1))
			}
			for s := 0; s < perFlow; s++ {
				payload[0] = byte(s)
				if st := src.Transports.RMP.SendBlocking(ctx, addr, 0, payload); st != 1 {
					panic(fmt.Sprintf("flow %d send %d failed: status %d", fi, s, st))
				}
			}
		})
	}

	allDone := func() bool {
		for _, d := range done {
			if !d {
				return false
			}
		}
		return true
	}
	for !allDone() {
		if err := cl.RunFor(10 * sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		if cl.Now() > sim.Time(60*sim.Second) {
			t.Fatalf("fabric workload stalled (shards=%d seed=%d, done=%v)", shards, seed, done)
		}
	}

	// Every flow spans leaves, so the spine crossbars (hubs 4 and 5 of a
	// 4-leaf topology) must have forwarded; frames crossed >= 2 HUB tiers.
	snap := cl.MetricsSnapshot()
	if snap.Value(obs.LayerFiber, "hub_forwarded", cl.Hubs[4].Name())+snap.Value(obs.LayerFiber, "hub_forwarded", cl.Hubs[5].Name()) == 0 {
		t.Fatalf("no spine forwards: flows did not cross HUB tiers (shards=%d)", shards)
	}

	streams := make([][]obs.Event, len(recs))
	for i, r := range recs {
		streams[i] = r.Events
	}
	return shardedWorkloadResult{
		trace:   obs.FormatEvents(obs.CanonicalTrace(streams...)),
		capture: obs.CanonicalCapture(taps...).Text(),
		metrics: cl.MetricsSnapshot().JSON(),
	}
}

// TestMultiHubSharded is the fabric tentpole's contract: frames crossing
// two HUB tiers (leaf -> spine -> leaf) under 2-, 4- and 8-shard
// partitions produce trace, capture and metric output byte-identical to
// the sequential run, with the communication graph declared (trunk
// ownership and reach planning active) across fault seeds.
func TestMultiHubSharded(t *testing.T) {
	for _, shards := range []int{2, 4, 8} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			for _, seed := range []uint64{1, 12345} {
				seq := runFabricWorkload(t, 1, seed, fabricOpts{declare: true})
				shd := runFabricWorkload(t, shards, seed, fabricOpts{declare: true})
				if seq.trace == "" || seq.capture == "" {
					t.Fatal("sequential run produced no observability output")
				}
				if shd.trace != seq.trace {
					t.Errorf("seed=%d: trace differs from sequential; first divergence:\nseq: %s\nshd: %s",
						seed, firstDiffLine(seq.trace, shd.trace), firstDiffLine(shd.trace, seq.trace))
				}
				if shd.capture != seq.capture {
					t.Errorf("seed=%d: capture differs from sequential", seed)
				}
				if !bytes.Equal(shd.metrics, seq.metrics) {
					t.Errorf("seed=%d: metrics snapshot differs from sequential", seed)
				}
			}
		})
	}
}

// TestMultiHubShardedUndeclared drops the flow declaration: every trunk
// then registers as an unrestricted shard-0 gateway, the conservative
// fallback. Output must still be byte-identical to sequential.
func TestMultiHubShardedUndeclared(t *testing.T) {
	seq := runFabricWorkload(t, 1, 7)
	shd := runFabricWorkload(t, 2, 7)
	if shd.trace != seq.trace {
		t.Errorf("trace differs from sequential; first divergence:\nseq: %s\nshd: %s",
			firstDiffLine(seq.trace, shd.trace), firstDiffLine(shd.trace, seq.trace))
	}
	if shd.capture != seq.capture {
		t.Error("capture differs from sequential")
	}
	if !bytes.Equal(shd.metrics, seq.metrics) {
		t.Error("metrics snapshot differs from sequential")
	}
}

// TestMultiHubShardedAffinity partitions with the locality-aware builder:
// flow components cluster by edge crossbar, so most trunks end up with an
// empty cross-shard reach. Still byte-identical.
func TestMultiHubShardedAffinity(t *testing.T) {
	flows := [][2]int{{0, 2}, {4, 6}, {1, 7}}
	topo := fabric.LeafSpine(4, 2, 2)
	seq := runFabricWorkload(t, 1, 12345, fabricOpts{declare: true})
	shd := runFabricWorkload(t, 2, 12345, fabricOpts{
		declare: true,
		shardOf: ShardByFlowsOnFabric(topo, 2, flows),
	})
	if shd.trace != seq.trace {
		t.Errorf("trace differs from sequential; first divergence:\nseq: %s\nshd: %s",
			firstDiffLine(seq.trace, shd.trace), firstDiffLine(shd.trace, seq.trace))
	}
	if !bytes.Equal(shd.metrics, seq.metrics) {
		t.Error("metrics snapshot differs from sequential")
	}
}

// TestFabricFatTreeDelivery boots two nodes in different pods of a k=4
// fat-tree and runs an RMP exchange: the frame traverses five crossbars
// (edge, agg, core, agg, edge). Only the two endpoints materialize.
func TestFabricFatTreeDelivery(t *testing.T) {
	topo := fabric.FatTree(4)
	cl := NewCluster(&Config{Topology: topo})
	src, dst := cl.Node(0), cl.Node(15) // pod 0 and pod 3
	if got := cl.MaterializedNodes(); got != 2 {
		t.Fatalf("MaterializedNodes = %d, want 2", got)
	}
	if got := cl.NodeCount(); got != 16 {
		t.Fatalf("NodeCount = %d, want 16", got)
	}

	sink := dst.Mailboxes.Create("sink")
	addr := wire.MailboxAddr{Node: dst.ID, Box: sink.ID()}
	var got []byte
	dst.CAB.Sched.Fork("drain", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		m := sink.BeginGet(ctx)
		got = append(got, m.Data()...)
		sink.EndGet(ctx, m)
	})
	src.CAB.Sched.Fork("send", threads.SystemPriority, func(th *threads.Thread) {
		src.Transports.RMP.SendBlocking(exec.OnCAB(th), addr, 0, []byte("across the fabric"))
	})
	if err := cl.RunFor(sim.Second); err != nil {
		t.Fatal(err)
	}
	if string(got) != "across the fabric" {
		t.Fatalf("payload = %q", got)
	}
	// Data and acks cross all three tiers; every tier must have forwarded.
	tiers := [][2]int{{0, 3}, {8, 11}, {16, 19}} // edge, agg, core hub ranges of FatTree(4)
	snap := cl.MetricsSnapshot()
	for _, r := range tiers {
		var fwd uint64
		for h := r[0]; h <= r[1]; h++ {
			fwd += snap.Value(obs.LayerFiber, "hub_forwarded", cl.Hubs[h].Name())
		}
		if fwd == 0 {
			t.Errorf("no forwards in hub tier %d..%d", r[0], r[1])
		}
	}
}

// TestFabricCompactNodes checks that attachment points not touched by
// Node(i) stay compact: no stack, no CAB, no route entries — and that the
// shared route table holds exactly the routes the materialized pairs need.
func TestFabricCompactNodes(t *testing.T) {
	cl := NewCluster(&Config{
		Topology: fabric.LeafSpine(8, 2, 16), // 128 attachment points
		Flows:    [][2]int{{0, 100}},
	})
	a, b := cl.Node(0), cl.Node(100)
	if got := cl.MaterializedNodes(); got != 2 {
		t.Fatalf("MaterializedNodes = %d, want 2", got)
	}
	if got := cl.NodeCount(); got != 128 {
		t.Fatalf("NodeCount = %d, want 128", got)
	}
	if a.ID == b.ID {
		t.Fatal("materialized nodes share a wire ID")
	}
	// Self-loopback + both directions of the declared pair.
	if entries, bytes := cl.RouteTableStats(); entries != 4 || bytes == 0 {
		t.Errorf("route table has %d entries (%d bytes), want 4 distinct routes", entries, bytes)
	}
	// Materializing an undeclared node must panic only when it talks, not
	// when it boots.
	_ = cl.Node(5)
	if got := cl.MaterializedNodes(); got != 3 {
		t.Fatalf("MaterializedNodes = %d, want 3", got)
	}
}

// TestAddNodeFillsFreeAttachmentPoints: AddNode takes the lowest
// attachment point Node(i) has not already materialized, and panics once
// the topology is full.
func TestAddNodeFillsFreeAttachmentPoints(t *testing.T) {
	cl := NewCluster(&Config{Topology: fabric.Star(4), CABDataBytes: 64 << 10})
	n0, n2 := cl.Node(0), cl.Node(2)
	if got := cl.AddNode(); got != cl.Node(1) || got == n0 || got == n2 {
		t.Fatal("AddNode did not take free attachment point 1")
	}
	if got := cl.AddNode(); got != cl.Node(3) {
		t.Fatal("AddNode did not skip materialized point 2 for point 3")
	}
	if got := cl.MaterializedNodes(); got != 4 {
		t.Fatalf("MaterializedNodes = %d, want 4", got)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "out of ports") {
			t.Fatalf("AddNode on a full topology: recovered %v, want an out-of-ports panic", r)
		}
	}()
	cl.AddNode()
}

// TestShardOfConsultedLazily: a sharded default cluster (a 16-port star)
// asks Config.ShardOf only about the nodes it touches, once each, so an
// 8-node ShardByFlows assignment is never indexed past node 7.
func TestShardOfConsultedLazily(t *testing.T) {
	flows := [][2]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}}
	assign := ShardByFlows(8, 2, flows)
	asked := map[int]int{}
	cl := NewCluster(&Config{Shards: 2, Flows: flows, ShardOf: func(i int) int {
		asked[i]++
		return assign(i)
	}})
	if cl.NodeCount() != 16 {
		t.Fatalf("default cluster has %d attachment points, want 16", cl.NodeCount())
	}
	for i := 0; i < 8; i++ {
		if n := cl.AddNode(); cl.ShardOfNode(i) != assign(i) {
			t.Fatalf("node %d (wire %d) on shard %d, want %d", i, n.ID, cl.ShardOfNode(i), assign(i))
		}
	}
	for i, times := range asked {
		if i > 7 || times != 1 {
			t.Errorf("ShardOf(%d) called %d times", i, times)
		}
	}
	if len(asked) != 8 {
		t.Errorf("ShardOf asked about %d nodes, want 8", len(asked))
	}
}

// TestDeclaredStarRoutes: with Config.Flows on the default star, a CAB
// holds routes only to its declared peers and itself. Star routes are one
// destination-port byte shared by every sender, so the shared table holds
// one entry per materialized node.
func TestDeclaredStarRoutes(t *testing.T) {
	cl := NewCluster(&Config{Flows: [][2]int{{0, 1}}})
	a, b, c := cl.AddNode(), cl.AddNode(), cl.AddNode()
	for _, tc := range []struct {
		from, to *Node
		want     bool
	}{
		{a, a, true}, {a, b, true}, {a, c, false},
		{b, a, true}, {b, b, true}, {b, c, false},
		{c, a, false}, {c, b, false}, {c, c, true},
	} {
		if _, ok := tc.from.CAB.Route(tc.to.ID); ok != tc.want {
			t.Errorf("route %d->%d present = %v, want %v", tc.from.ID, tc.to.ID, ok, tc.want)
		}
	}
	if entries, bytes := cl.RouteTableStats(); entries != 3 || bytes != 3 {
		t.Errorf("route table has %d entries (%d bytes), want 3 one-byte routes", entries, bytes)
	}
}

// TestShardByFlowsOnFabric: components sharing a leaf crossbar cluster
// onto the same shard when balance allows, and the assignment co-locates
// every flow's endpoints.
func TestShardByFlowsOnFabric(t *testing.T) {
	topo := fabric.LeafSpine(4, 2, 4) // 16 nodes, 4 per leaf
	// Two flows per leaf-pair: leaf0<->leaf1 and leaf2<->leaf3 traffic.
	flows := [][2]int{{0, 4}, {1, 5}, {8, 12}, {9, 13}}
	f := ShardByFlowsOnFabric(topo, 2, flows)
	for _, fl := range flows {
		if f(fl[0]) != f(fl[1]) {
			t.Errorf("flow %v split across shards %d/%d", fl, f(fl[0]), f(fl[1]))
		}
	}
	// Locality: the two leaf0<->leaf1 components share edge crossbars, so
	// they land on the same shard (and likewise the leaf2<->leaf3 pair).
	if f(0) != f(1) {
		t.Errorf("leaf0 components split: shard(%d)=%d shard(%d)=%d", 0, f(0), 1, f(1))
	}
	if f(8) != f(9) {
		t.Errorf("leaf2 components split: shard(%d)=%d shard(%d)=%d", 8, f(8), 9, f(9))
	}
	if f(0) == f(8) {
		t.Error("both leaf pairs on one shard: no parallelism")
	}
	for i := 0; i < 16; i++ {
		if s := f(i); s < 0 || s >= 2 {
			t.Fatalf("shard(%d) = %d out of range", i, s)
		}
	}
}
