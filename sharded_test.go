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
	"nectar/internal/rt/mailbox"
	"nectar/internal/rt/threads"
	"nectar/internal/sim"
)

// shardedWorkloadResult is everything a run exports for byte-comparison:
// the canonical trace, the canonical wire capture, and the merged metrics
// snapshot JSON.
type shardedWorkloadResult struct {
	trace   string
	capture string
	metrics []byte
}

// shardedOpts varies the execution shape of runShardedWorkload without
// touching the simulated workload: none of these may change the output.
type shardedOpts struct {
	// shardOf overrides the round-robin node-to-shard assignment.
	shardOf func(nodeIdx int) int
	// chunk is the RunFor granularity (default 10ms). The coupling must
	// produce identical output whatever horizon the driver advances by.
	chunk sim.Duration
	// declare passes the workload's flow list as Config.Flows, enabling
	// reach-based bound exclusion (and traffic enforcement).
	declare bool
}

// runShardedWorkload drives a 4-node cluster — two cross-shard RMP flows
// (0->1 and 2->3) under deterministic fault injection (drops + corruption
// on every uplink, pattern varied by seed) — with a trace recorder and
// wire capture per shard kernel, and returns the canonicalized output.
// shards=1 runs the identical workload on a one-domain coupling.
func runShardedWorkload(t *testing.T, shards int, seed uint64, opts ...shardedOpts) shardedWorkloadResult {
	t.Helper()
	var opt shardedOpts
	if len(opts) > 0 {
		opt = opts[0]
	}
	if opt.chunk == 0 {
		opt.chunk = 10 * sim.Millisecond
	}
	// Flows: 0 -> 1 and 2 -> 3. With round-robin shard assignment both
	// flows cross the shard boundary in both directions (data and acks).
	flows := [][2]int{{0, 1}, {2, 3}}

	cfg := &Config{Shards: shards, ShardOf: opt.shardOf}
	if opt.declare {
		cfg.Flows = flows
	}
	cl := NewCluster(cfg)

	const nNodes = 4
	const perFlow = 24
	nodes := make([]*Node, nNodes)
	for i := range nodes {
		nodes[i] = cl.AddNode()
	}

	result := observe(cl)

	// Deterministic stateless fault pattern per link: pure function of
	// the packet ordinal and the seed, so it needs no shared state and
	// is identical between sequential and sharded runs.
	for _, n := range nodes {
		n.CAB.OutLink().SetFaultFn(func(seq uint64) (drop, corrupt bool) {
			return (seq+seed)%7 == 3, (seq+3*seed)%11 == 5
		})
	}

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
		if err := cl.RunFor(opt.chunk); err != nil {
			t.Fatal(err)
		}
		if cl.Now() > sim.Time(60*sim.Second) {
			t.Fatalf("workload stalled (shards=%d seed=%d, done=%v)", shards, seed, done)
		}
	}

	if got := cl.Shards(); got != shards {
		t.Fatalf("cluster has %d shards, want %d", got, shards)
	}
	if cl.MetricsSnapshot().Value(obs.LayerFiber, "hub_forwarded", cl.Hubs[0].Name()) == 0 {
		t.Fatal("no HUB forwards: flows did not cross the switch")
	}

	return result()
}

// observe attaches a trace recorder and a wire capture to every shard
// kernel of cl and returns a function that canonicalizes what they and
// the metrics recorded.
func observe(cl *Cluster) func() shardedWorkloadResult {
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
	return func() shardedWorkloadResult {
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
}

// TestShardedDeterminismUnderFaults is the tentpole's contract: a 4-node,
// 2-shard cluster under fault injection (drops + corruption) produces
// trace, capture, and metric output byte-identical to the sequential
// single-kernel run, across 3 seeds. Run under -race this also verifies
// the coupling's synchronization (shards execute on distinct goroutines).
func TestShardedDeterminismUnderFaults(t *testing.T) {
	for _, seed := range []uint64{1, 12345, 987654321} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			seq := runShardedWorkload(t, 1, seed)
			shd := runShardedWorkload(t, 2, seed)
			if seq.trace == "" || seq.capture == "" {
				t.Fatal("sequential run produced no observability output")
			}
			if shd.trace != seq.trace {
				t.Errorf("sharded trace differs from sequential; first divergence:\nseq: %s\nshd: %s",
					firstDiffLine(seq.trace, shd.trace), firstDiffLine(shd.trace, seq.trace))
			}
			if shd.capture != seq.capture {
				t.Errorf("sharded capture differs from sequential; first divergence:\nseq: %s\nshd: %s",
					firstDiffLine(seq.capture, shd.capture), firstDiffLine(shd.capture, seq.capture))
			}
			if !bytes.Equal(shd.metrics, seq.metrics) {
				t.Errorf("sharded metrics snapshot differs from sequential:\nseq: %s\nshd: %s",
					firstDiffLine(string(seq.metrics), string(shd.metrics)),
					firstDiffLine(string(shd.metrics), string(seq.metrics)))
			}
		})
	}
}

// TestShardedRepeatable runs the sharded workload twice and requires
// byte-identical output — parallel execution must not introduce run-to-run
// nondeterminism.
func TestShardedRepeatable(t *testing.T) {
	r1 := runShardedWorkload(t, 2, 7)
	r2 := runShardedWorkload(t, 2, 7)
	if r1.trace != r2.trace {
		t.Errorf("sharded traces differ between identical runs; first divergence:\nrun1: %s\nrun2: %s",
			firstDiffLine(r1.trace, r2.trace), firstDiffLine(r2.trace, r1.trace))
	}
	if r1.capture != r2.capture {
		t.Error("sharded captures differ between identical runs")
	}
	if !bytes.Equal(r1.metrics, r2.metrics) {
		t.Error("sharded metric snapshots differ between identical runs")
	}
}

// TestShardedFourWay shards the same 4-node workload one shard per node.
func TestShardedFourWay(t *testing.T) {
	seq := runShardedWorkload(t, 1, 42)
	shd := runShardedWorkload(t, 4, 42)
	if shd.trace != seq.trace {
		t.Errorf("4-shard trace differs from sequential; first divergence:\nseq: %s\nshd: %s",
			firstDiffLine(seq.trace, shd.trace), firstDiffLine(shd.trace, seq.trace))
	}
	if !bytes.Equal(shd.metrics, seq.metrics) {
		t.Error("4-shard metrics snapshot differs from sequential")
	}
}

// TestShardedArbitraryPartitions is the partitioning property test: for
// ANY node-to-shard assignment — pathological ones included — and any
// fault seed, the sharded run must stay byte-identical to the sequential
// one. Correctness may never depend on how the user partitions.
func TestShardedArbitraryPartitions(t *testing.T) {
	partitions := []struct {
		name    string
		shards  int
		shardOf func(nodeIdx int) int
	}{
		// Everything on shard 0 except the last node: one shard nearly
		// idle, maximally asymmetric load.
		{"lopsided", 2, func(i int) int {
			if i == 3 {
				return 1
			}
			return 0
		}},
		// Alternating: both flows (0->1, 2->3) split across the boundary,
		// like round-robin but with the opposite pairing.
		{"alternating", 2, func(i int) int { return i % 2 }},
		// Flow affinity: each flow's endpoints co-located, so no simulated
		// frame crosses the coupling at all.
		{"affinity", 2, ShardByFlows(4, 2, [][2]int{{0, 1}, {2, 3}})},
		// Three shards for four nodes: unequal shard populations.
		{"uneven3", 3, func(i int) int { return i % 3 }},
	}
	for _, p := range partitions {
		p := p
		t.Run(p.name, func(t *testing.T) {
			for _, seed := range []uint64{1, 12345, 987654321} {
				seq := runShardedWorkload(t, 1, seed)
				shd := runShardedWorkload(t, p.shards, seed, shardedOpts{shardOf: p.shardOf})
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

// TestShardedChunkInvariance varies the RunFor horizon: window coalescing
// clamps bounds to the driver's horizon, so the schedule of safe windows
// differs radically between chunk sizes, but at every chunk size the
// sharded run must match the sequential run driven with the same chunk.
// (Different chunks legitimately produce different output — the driver
// loop only observes completion at chunk boundaries, so a bigger chunk
// simulates further past the last delivery — which is why the comparison
// is seq-vs-shd per chunk, not across chunks.)
func TestShardedChunkInvariance(t *testing.T) {
	const seed = 12345
	for _, chunk := range []sim.Duration{sim.Millisecond, 3 * sim.Millisecond, 40 * sim.Millisecond} {
		seq := runShardedWorkload(t, 1, seed, shardedOpts{chunk: chunk})
		shd := runShardedWorkload(t, 2, seed, shardedOpts{chunk: chunk})
		if shd.trace != seq.trace {
			t.Errorf("chunk=%v: trace differs; first divergence:\nseq: %s\nshd: %s",
				chunk, firstDiffLine(seq.trace, shd.trace), firstDiffLine(shd.trace, seq.trace))
		}
		if shd.capture != seq.capture {
			t.Errorf("chunk=%v: capture differs", chunk)
		}
		if !bytes.Equal(shd.metrics, seq.metrics) {
			t.Errorf("chunk=%v: metrics snapshot differs", chunk)
		}
	}
}

// TestShardedDeclaredFlows is the coalescing property test: with the
// communication graph declared (Config.Flows) and flow-affinity
// partitioning, no gateway can ever emit toward the other shard, so every
// safe window spans the whole RunFor horizon. That maximally-coalesced
// schedule must still be byte-identical to the sequential run — with the
// SAME declaration, so the enforcement guard is active in both — across
// fault seeds and for a cross-shard partition too (where declaration
// tightens but does not eliminate the bounds).
func TestShardedDeclaredFlows(t *testing.T) {
	partitions := []struct {
		name    string
		shardOf func(nodeIdx int) int
	}{
		{"affinity", ShardByFlows(4, 2, [][2]int{{0, 1}, {2, 3}})},
		{"alternating", func(i int) int { return i % 2 }},
	}
	for _, p := range partitions {
		p := p
		t.Run(p.name, func(t *testing.T) {
			for _, seed := range []uint64{1, 12345, 987654321} {
				seq := runShardedWorkload(t, 1, seed, shardedOpts{declare: true})
				shd := runShardedWorkload(t, 2, seed, shardedOpts{declare: true, shardOf: p.shardOf})
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
	// Declaring must also not perturb output relative to NOT declaring:
	// the declaration only changes scheduling bounds, never the workload.
	plain := runShardedWorkload(t, 1, 12345)
	declared := runShardedWorkload(t, 1, 12345, shardedOpts{declare: true})
	if plain.trace != declared.trace {
		t.Error("declaring flows changed the sequential trace")
	}
}

// TestDeclaredFlowViolationPanics pins the enforcement contract: traffic
// between nodes not declared in Config.Flows fails deterministically —
// routes exist only between declared peers, and the CAB's route miss
// panics on the first send, which the proc runtime converts into a
// kernel-fatal error returned by RunFor. The contract holds on a single
// HUB and across a leaf-spine fabric, sequential and sharded, so a bad
// declaration can never silently desync a sharded run.
func TestDeclaredFlowViolationPanics(t *testing.T) {
	for _, topo := range []struct {
		name string
		topo func() *fabric.Topology
	}{
		{"star", func() *fabric.Topology { return nil }},
		{"leafspine", func() *fabric.Topology { return fabric.LeafSpine(2, 1, 2) }},
	} {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/shards=%d", topo.name, shards), func(t *testing.T) {
				cl := NewCluster(&Config{Topology: topo.topo(), Shards: shards, Flows: [][2]int{{0, 1}}})
				nodes := []*Node{cl.Node(0), cl.Node(1), cl.Node(2)}
				sink := nodes[2].Mailboxes.Create("undeclared.sink")
				addr := wire.MailboxAddr{Node: nodes[2].ID, Box: sink.ID()}
				nodes[0].CAB.Sched.Fork("violate", threads.SystemPriority, func(th *threads.Thread) {
					// 0 -> 2 is not declared: the first frame finds no route.
					nodes[0].Transports.RMP.SendBlocking(exec.OnCAB(th), addr, 0, []byte("x"))
				})
				err := cl.RunFor(sim.Second)
				if err == nil {
					t.Fatal("undeclared 0->2 traffic did not fail the run")
				}
				if !strings.Contains(err.Error(), "Config.Flows does not declare") {
					t.Errorf("wrong failure: %v", err)
				}
			})
		}
	}
}

// TestShardByFlows checks the flow-affinity assignment: deterministic,
// flow-co-locating, load-balanced.
func TestShardByFlows(t *testing.T) {
	flows := [][2]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}}
	f := ShardByFlows(8, 2, flows)
	for _, fl := range flows {
		if f(fl[0]) != f(fl[1]) {
			t.Errorf("flow %v split across shards %d/%d", fl, f(fl[0]), f(fl[1]))
		}
	}
	counts := map[int]int{}
	for i := 0; i < 8; i++ {
		s := f(i)
		if s < 0 || s >= 2 {
			t.Fatalf("ShardOf(%d) = %d out of range", i, s)
		}
		counts[s]++
	}
	if counts[0] != 4 || counts[1] != 4 {
		t.Errorf("unbalanced assignment: %v", counts)
	}
	// Chained flows merge into one component.
	g := ShardByFlows(4, 2, [][2]int{{0, 1}, {1, 2}})
	if g(0) != g(1) || g(1) != g(2) {
		t.Errorf("chained flows not co-located: %d %d %d", g(0), g(1), g(2))
	}
	if g(3) == g(0) {
		t.Errorf("isolated node 3 not balanced onto the other shard")
	}
}

// TestShardedCircuitRefused checks the guard: circuits have zero switch
// delay (zero lookahead), so sharded HUBs refuse to open them.
func TestShardedCircuitRefused(t *testing.T) {
	cl := NewCluster(&Config{Shards: 2})
	cl.AddNode()
	cl.AddNode()
	if err := cl.Hubs[0].OpenCircuit(0, 1); err == nil {
		t.Fatal("OpenCircuit succeeded on a sharded HUB")
	}
}

// TestProfileReportCountsTrunkCrossShardFrames checks the cluster's
// cross-shard count against an independent one: a gateway counts a frame
// when it enters the link toward the HUB that forwards it across, and the
// profiler counts the forward when the coupling drains it. HUB forwards
// are the only cross-domain sends, so once every frame has arrived the
// two agree, on a fabric whose frames also leave through trunk gateways
// and on a star whose only gateways are node uplinks. The report's wire
// counts must equal the snapshot's fiber sums.
func TestProfileReportCountsTrunkCrossShardFrames(t *testing.T) {
	for _, c := range []struct {
		name    string
		cfg     Config
		flows   [][2]int
		declare bool // pass flows as Config.Flows
	}{
		// Leaves 0-1 on shard 0 and leaves 2-3 on shard 1, every flow
		// crossing the cut, every other one reversed.
		{"leaf-spine cross-cut", Config{
			Topology: fabric.LeafSpine(4, 2, 16), Shards: 2,
			ShardOf: func(n int) int { return n / 32 },
		}, [][2]int{{0, 32}, {34, 2}, {4, 36}, {38, 6}}, true},
		// Round-robin: every flow joins the two shards.
		{"star", Config{Shards: 2}, [][2]int{{0, 1}, {3, 2}, {4, 5}}, false},
	} {
		if c.declare {
			c.cfg.Flows = c.flows
		}
		cl := NewCluster(&c.cfg)
		cl.EnableProfiling()
		const msgs = 10
		for _, f := range c.flows {
			src, dst := cl.Node(f[0]), cl.Node(f[1])
			sink := dst.Mailboxes.Create("sink")
			addr := wire.MailboxAddr{Node: dst.ID, Box: sink.ID()}
			dst.CAB.Sched.Fork("drain", threads.SystemPriority, func(th *threads.Thread) {
				ctx := exec.OnCAB(th)
				for i := 0; i < msgs; i++ {
					sink.EndGet(ctx, sink.BeginGet(ctx))
				}
			})
			src.CAB.Sched.Fork("send", threads.SystemPriority, func(th *threads.Thread) {
				ctx := exec.OnCAB(th)
				for i := 0; i < msgs; i++ {
					src.Transports.RMP.SendBlocking(ctx, addr, 0, make([]byte, 256))
				}
			})
		}
		if err := cl.RunFor(sim.Second); err != nil {
			t.Fatal(err)
		}
		rep := cl.ProfileReport()
		var drained uint64
		for _, s := range rep.PerShard {
			drained += s.DrainOutInjections
		}
		if cross := cl.CrossShardFrames(); cross != drained || cross == 0 {
			t.Errorf("%s: Cluster.CrossShardFrames() = %d, drained cross-shard forwards = %d", c.name, cross, drained)
		}
		// The wire counts are the fiber gauges a snapshot reports.
		snap := cl.MetricsSnapshot()
		frames, nbytes := snap.Sum(obs.LayerFiber, "frames"), snap.Sum(obs.LayerFiber, "bytes")
		if rep.WireFrames != frames || rep.WireBytes != nbytes || frames == 0 {
			t.Errorf("%s: ProfileReport() wire = %d frames, %d bytes; snapshot fiber sums = %d, %d",
				c.name, rep.WireFrames, rep.WireBytes, frames, nbytes)
		}
	}
}

// TestDeadlockReportSameForEveryShardCount checks that a deadlocked
// cluster reports the same blocked procs, in the same words, whatever
// its shard count.
func TestDeadlockReportSameForEveryShardCount(t *testing.T) {
	run := func(shards int) string {
		cl := NewCluster(&Config{Shards: shards})
		for i := 0; i < 2; i++ {
			n := cl.AddNode()
			box := n.Mailboxes.Create("empty")
			n.CAB.Sched.Fork("waiter", threads.SystemPriority, func(th *threads.Thread) {
				box.BeginGet(exec.OnCAB(th))
			})
		}
		err := cl.Run()
		if err == nil {
			t.Fatalf("shards=%d: Run drained without reporting the blocked waiters", shards)
		}
		return err.Error()
	}
	one, two := run(1), run(2)
	if one != two {
		t.Errorf("deadlock reports differ:\nshards=1: %s\nshards=2: %s", one, two)
	}
	if !strings.Contains(one, "cab1/waiter") || !strings.Contains(one, "cab2/waiter") {
		t.Errorf("deadlock report does not name both waiters: %s", one)
	}
}

// runShardedHostEcho has a host process on node 0 echo messages off a
// host process on node 1, first over datagram and then over RMP, with
// both sides waiting for each message by polling their mailbox
// (BeginGetPoll, so hostif's WaitPoll spin step). With two shards the
// server's node runs on a worker goroutine. It returns the canonical
// trace, capture and metrics, and each echo's round trip.
func runShardedHostEcho(t *testing.T, shards int) (shardedWorkloadResult, []sim.Duration) {
	t.Helper()
	cl := NewCluster(&Config{Shards: shards})
	a, b := cl.AddNode(), cl.AddNode()
	if cl.ShardOfNode(1) != shards-1 {
		t.Fatalf("shards=%d: the server's node is on shard %d", shards, cl.ShardOfNode(1))
	}
	result := observe(cl)

	const echoes = 6
	svc, reply := b.Mailboxes.Create("svc"), a.Mailboxes.Create("reply")
	send := func(ctx exec.Context, n *Node, rmp bool, to wire.MailboxAddr, from wire.MailboxID, data []byte) {
		if rmp {
			n.Transports.RMP.Send(ctx, to, from, data, nil)
		} else {
			n.Transports.Datagram.Send(ctx, to, from, data, nil)
		}
	}
	recv := func(ctx exec.Context, box *mailbox.Mailbox, buf []byte) []byte {
		m := box.BeginGetPoll(ctx)
		data := buf[:m.Len()]
		m.Read(ctx, 0, data)
		box.EndGet(ctx, m)
		return data
	}
	b.Host.Run("echo", func(th *threads.Thread) {
		ctx := exec.OnHost(th, b.Host)
		buf := make([]byte, wire.MaxPayload)
		for i := 0; i < 2*echoes; i++ {
			send(ctx, b, i >= echoes, reply.Addr(), svc.ID(), recv(ctx, svc, buf))
		}
	})
	var rtts []sim.Duration
	a.Host.Run("client", func(th *threads.Thread) {
		ctx := exec.OnHost(th, a.Host)
		buf := make([]byte, wire.MaxPayload)
		for i := 0; i < 2*echoes; i++ {
			msg := bytes.Repeat([]byte{byte(i)}, 4+40*i)
			start := th.Now()
			send(ctx, a, i >= echoes, svc.Addr(), reply.ID(), msg)
			if got := recv(ctx, reply, buf); !bytes.Equal(got, msg) {
				t.Errorf("shards=%d: echo %d came back as %d bytes, want %d", shards, i, len(got), len(msg))
			}
			rtts = append(rtts, sim.Duration(th.Now()-start))
		}
	})
	if err := cl.RunFor(50 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(rtts) != 2*echoes {
		t.Fatalf("shards=%d: %d of %d echoes completed", shards, len(rtts), 2*echoes)
	}
	return result(), rtts
}

// TestShardedHostPolling checks that host processes polling their
// mailboxes, whose poll loops run as Spin steps from their wake events,
// give the same echoes, trace, capture and metrics at two shards as at
// one. Under -race it also runs those steps on a worker goroutine.
func TestShardedHostPolling(t *testing.T) {
	seq, seqRTT := runShardedHostEcho(t, 1)
	shd, shdRTT := runShardedHostEcho(t, 2)
	if seq.trace == "" || seq.capture == "" {
		t.Fatal("sequential run produced no observability output")
	}
	if fmt.Sprint(shdRTT) != fmt.Sprint(seqRTT) {
		t.Errorf("round trips differ:\nshards=1: %v\nshards=2: %v", seqRTT, shdRTT)
	}
	if shd.trace != seq.trace {
		t.Errorf("sharded trace differs from sequential; first divergence:\nseq: %s\nshd: %s",
			firstDiffLine(seq.trace, shd.trace), firstDiffLine(shd.trace, seq.trace))
	}
	if shd.capture != seq.capture {
		t.Errorf("sharded capture differs from sequential; first divergence:\nseq: %s\nshd: %s",
			firstDiffLine(seq.capture, shd.capture), firstDiffLine(shd.capture, seq.capture))
	}
	if !bytes.Equal(shd.metrics, seq.metrics) {
		t.Errorf("sharded metrics snapshot differs from sequential:\nseq: %s\nshd: %s",
			firstDiffLine(string(seq.metrics), string(shd.metrics)),
			firstDiffLine(string(shd.metrics), string(seq.metrics)))
	}
}
