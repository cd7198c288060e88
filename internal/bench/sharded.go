package bench

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"nectar"
	"nectar/internal/fabric"
	"nectar/internal/model"
	"nectar/internal/prof"
	"nectar/internal/proto/wire"
	"nectar/internal/rt/exec"
	"nectar/internal/rt/threads"
	"nectar/internal/sim"
)

// Sequential-vs-sharded points, the one harness behind the pdes and
// scale experiments: a point's RMP flows run once on a one-domain
// coupling and once on Shards domains, and the sharded leg's virtual-time
// output must be byte-identical to the sequential one's.

// Host records the machine a report was measured on.
type Host struct {
	Date       string `json:"date"`
	GoVersion  string `json:"go_version"`
	GoMaxProcs int    `json:"gomaxprocs"`
	// NumCPU is the host's core count. min(GoMaxProcs, NumCPU) is the
	// usable core count (sim.UsableCores); a speedup near or below 1.0
	// with fewer usable cores than shards means the host could not
	// physically run the shards in parallel, not that the coupling failed
	// to overlap.
	NumCPU int `json:"num_cpu"`
}

func thisHost() Host {
	return Host{
		Date:       time.Now().UTC().Format("2006-01-02"), //nectar:allow-walltime report metadata, not simulation state
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
}

// ShardedPoint is one sequential-vs-sharded measurement.
type ShardedPoint struct {
	Name   string `json:"name,omitempty"` // absent on the pdes main point
	Fabric string `json:"fabric"`         // the topology's name
	// Nodes counts a fabric's attachment points, or a star's flow
	// endpoints.
	Nodes  int `json:"nodes"`
	Hubs   int `json:"hubs"`
	Trunks int `json:"trunks"` // directed inter-HUB links
	Tiers  int `json:"tiers"`

	Flows           int `json:"flows"`
	MessagesPerFlow int `json:"messages_per_flow"`
	MessageBytes    int `json:"message_bytes"`
	Materialized    int `json:"materialized"` // nodes with booted stacks

	// Shards is the sharded leg's domain count: one goroutine per shard,
	// the coupling scheduler running shard 0 and a worker each of the
	// others.
	Shards int `json:"shards"`
	// Partition names how nodes were assigned to shards:
	// "flow-affinity" (ShardByFlows), "fabric-affinity"
	// (ShardByFlowsOnFabric), "round-robin", or a fixed split.
	Partition string `json:"partition"`
	// Oversubscribed marks a point whose shards outnumber the usable
	// cores (sim.UsableCores): its speedup measures time-sliced
	// goroutines, not parallel hardware, and must not be read as a
	// scheduler verdict.
	Oversubscribed bool `json:"oversubscribed"`

	// BuildSeconds is cluster construction plus endpoint materialization;
	// BytesPerNode is the post-build heap growth divided by Nodes.
	BuildSeconds float64 `json:"build_seconds"`
	BytesPerNode float64 `json:"bytes_per_node"`
	// RouteEntries/RouteBytes are the shared deduplicated route table.
	RouteEntries int `json:"route_entries"`
	RouteBytes   int `json:"route_bytes"`

	// Each leg's seconds span the cluster build, the run and the metrics
	// snapshot (when compared); the bytes/node GCs fall outside. A side
	// reports its median run (see minSideSeconds).
	SequentialSeconds float64 `json:"sequential_seconds"`
	ShardedSeconds    float64 `json:"sharded_seconds"`
	Speedup           float64 `json:"speedup"`

	// SequentialWindows and Windows count each leg's safe windows.
	SequentialWindows uint64 `json:"sequential_windows"`
	Windows           uint64 `json:"windows"`
	// EventsPerWindow is total kernel dispatches across all shards divided
	// by Windows: the mean batching each safe window achieved.
	EventsPerWindow float64 `json:"events_per_window"`
	// WindowsPerVirtualMS normalises the window count by simulated time.
	WindowsPerVirtualMS float64 `json:"windows_per_virtual_ms"`
	CrossShardFrames    uint64  `json:"cross_shard_frames"`

	// Identical means the sharded per-flow table, and the merged metrics
	// snapshot when MetricsCompared, are byte-identical to the
	// sequential leg's (a 65k fabric's snapshot enumerates a million link
	// gauges, so that point compares tables only).
	Identical       bool `json:"identical_output"`
	MetricsCompared bool `json:"metrics_compared"`

	// Table is the per-flow virtual-time result both legs produced.
	Table string `json:"table"`
	// Profile is the sharded leg's wall-clock breakdown, on the one
	// profiled point.
	Profile *prof.Report `json:"profile,omitempty"`
}

// partition names a shard assignment and builds it for a leg; a nil
// shardOf leaves the cluster's round-robin default.
type partition struct {
	name    string
	shardOf func(sp *pointSpec, topo *fabric.Topology, shards int) func(int) int
}

var (
	flowAffinity = partition{"flow-affinity", func(sp *pointSpec, _ *fabric.Topology, shards int) func(int) int {
		return nectar.ShardByFlows(sp.nodes, shards, sp.flows)
	}}
	fabricAffinity = partition{"fabric-affinity", func(sp *pointSpec, topo *fabric.Topology, shards int) func(int) int {
		return nectar.ShardByFlowsOnFabric(topo, shards, sp.flows)
	}}
)

// pointSpec fixes one point's fabric and workload.
type pointSpec struct {
	name      string
	topo      func() *fabric.Topology // built afresh for each leg
	nodes     int                     // as ShardedPoint.Nodes
	flows     [][2]int                // src -> dst attachment points
	partition partition
	shards    int
	perFlow   int
	msgBytes  int
	cabBytes  int // CAB packet memory; 0 is the 1 MB default
	// compareMetrics additionally byte-compares the merged metrics
	// snapshots.
	compareMetrics bool
}

// crossFlows returns n flows f*stride -> f*stride+gap, every odd one
// reversed when alternate is set.
func crossFlows(n, stride, gap int, alternate bool) [][2]int {
	flows := make([][2]int, n)
	for f := range flows {
		src, dst := f*stride, f*stride+gap
		if alternate && f%2 == 1 {
			src, dst = dst, src
		}
		flows[f] = [2]int{src, dst}
	}
	return flows
}

// leg is one run of a point's flows at one shard count.
type leg struct {
	topo         *fabric.Topology
	table        string
	metrics      []byte // nil unless the spec compares metrics
	wallS        float64
	buildS       float64
	bytesPerNode float64
	routeEntries int
	routeBytes   int
	materialized int
	windows      uint64
	events       uint64 // kernel dispatches summed over all shards
	crossShard   uint64
	virtual      sim.Time
	profile      *prof.Report // nil unless profiled
}

// runLeg builds the point's cluster with shards domains, materializes the
// flow endpoints in attachment-index order (wire IDs follow it, as
// AddNode would number them), drives the flows to completion and
// measures. The flow list is the workload's complete
// traffic matrix, so it is declared (Config.Flows) on both legs.
func runLeg(cost *model.CostModel, sp *pointSpec, shards int, profiled bool) (*leg, error) {
	l := &leg{topo: sp.topo()}
	cfg := nectar.Config{Cost: cost, Topology: l.topo, Flows: sp.flows, CABDataBytes: sp.cabBytes, Shards: shards}
	if shards > 1 && sp.partition.shardOf != nil {
		cfg.ShardOf = sp.partition.shardOf(sp, l.topo, shards)
	}
	var endpoints []int
	for _, f := range sp.flows {
		endpoints = append(endpoints, f[0], f[1])
	}
	slices.Sort(endpoints)

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now() //nectar:allow-walltime measures a leg's real wall clock for the BENCH reports
	cl := nectar.NewCluster(&cfg)
	if profiled {
		cl.EnableProfiling()
	}
	for _, i := range slices.Compact(endpoints) {
		cl.Node(i)
	}
	l.buildS = time.Since(start).Seconds() //nectar:allow-walltime measures a leg's real wall clock for the BENCH reports
	runtime.GC()
	runtime.ReadMemStats(&m1)
	if m1.HeapAlloc > m0.HeapAlloc {
		l.bytesPerNode = float64(m1.HeapAlloc-m0.HeapAlloc) / float64(sp.nodes)
	}

	start = time.Now() //nectar:allow-walltime measures a leg's real wall clock for the BENCH reports
	ends, err := driveRMPFlows(cl, sp.flows, sp.perFlow, sp.msgBytes)
	if err != nil {
		return nil, err
	}
	if sp.compareMetrics {
		l.metrics = cl.MetricsSnapshot().JSON()
	}
	l.wallS = l.buildS + time.Since(start).Seconds() //nectar:allow-walltime measures a leg's real wall clock for the BENCH reports

	l.table = fmt.Sprintf("%6s %14s %12s %12s\n", "flow", "route", "done(us)", "Mbit/s")
	for fi, f := range sp.flows {
		l.table += fmt.Sprintf("%6d %6d->%-6d %12.1f %12.1f\n",
			fi, f[0], f[1], ends[fi].Micros(), mbps(sp.perFlow*sp.msgBytes, sim.Duration(ends[fi])))
	}
	for _, k := range cl.Kernels() {
		l.events += k.Dispatched()
	}
	l.routeEntries, l.routeBytes = cl.RouteTableStats()
	l.materialized, l.windows, l.crossShard = cl.MaterializedNodes(), cl.Windows(), cl.CrossShardFrames()
	l.virtual, l.profile = cl.Now(), cl.ProfileReport()
	return l, nil
}

// minSideSeconds is the wall clock each side of a point runs for at
// least: a leg shorter than that repeats, and the side reports its median
// run, so a speedup compares medians instead of two single runs of a few
// milliseconds. The sides take turns, so a slow stretch of the host slows
// both alike. A leg that alone takes longer runs once.
const minSideSeconds = 0.1

// side is the runs of a point's leg at one shard count.
type side struct {
	shards   int
	profiled bool
	runs     []*leg
	total    float64 // wall-clock seconds of all runs
}

// run runs the leg once more. Virtual time does not depend on the
// repeat, so every run's flow table and metrics must equal the first
// run's.
func (sd *side) run(cost *model.CostModel, sp *pointSpec) error {
	l, err := runLeg(cost, sp, sd.shards, sd.profiled)
	if err != nil {
		return err
	}
	if len(sd.runs) > 0 && (l.table != sd.runs[0].table || !bytes.Equal(l.metrics, sd.runs[0].metrics)) {
		return fmt.Errorf("run %d's output differs from the first run's", len(sd.runs)+1)
	}
	sd.runs = append(sd.runs, l)
	sd.total += l.wallS
	return nil
}

// median returns the run of median wall clock.
func (sd *side) median() *leg {
	slices.SortStableFunc(sd.runs, func(a, b *leg) int { return cmp.Compare(a.wallS, b.wallS) })
	return sd.runs[len(sd.runs)/2]
}

// runPoint runs a point's sequential and sharded sides in turns until
// each has run minSideSeconds, and compares their median runs; profiled
// puts the sharded leg under the wall-clock profiler.
func runPoint(cost *model.CostModel, sp *pointSpec, profiled bool) (*ShardedPoint, error) {
	seqSide, shdSide := &side{shards: 1}, &side{shards: sp.shards, profiled: profiled}
	for seqSide.total < minSideSeconds || shdSide.total < minSideSeconds {
		if seqSide.total < minSideSeconds {
			if err := seqSide.run(cost, sp); err != nil {
				return nil, fmt.Errorf("sequential leg: %w", err)
			}
		}
		if shdSide.total < minSideSeconds {
			if err := shdSide.run(cost, sp); err != nil {
				return nil, fmt.Errorf("sharded leg: %w", err)
			}
		}
	}
	seq, shd := seqSide.median(), shdSide.median()
	p := &ShardedPoint{
		Name: sp.name, Fabric: shd.topo.Name, Nodes: sp.nodes,
		Hubs: shd.topo.Hubs(), Trunks: len(shd.topo.Trunks), Tiers: shd.topo.Tiers(),
		Flows: len(sp.flows), MessagesPerFlow: sp.perFlow, MessageBytes: sp.msgBytes,
		Materialized: shd.materialized, Shards: sp.shards, Partition: sp.partition.name,
		Oversubscribed: sp.shards > sim.UsableCores(),
		BuildSeconds:   shd.buildS, BytesPerNode: shd.bytesPerNode,
		RouteEntries: shd.routeEntries, RouteBytes: shd.routeBytes,
		SequentialSeconds: seq.wallS, ShardedSeconds: shd.wallS,
		SequentialWindows: seq.windows, Windows: shd.windows, CrossShardFrames: shd.crossShard,
		Identical:       seq.table == shd.table && bytes.Equal(seq.metrics, shd.metrics),
		MetricsCompared: sp.compareMetrics,
		Table:           seq.table, Profile: shd.profile,
	}
	if shd.windows > 0 {
		p.EventsPerWindow = float64(shd.events) / float64(shd.windows)
	}
	if shd.virtual > 0 {
		p.WindowsPerVirtualMS = float64(shd.windows) / (float64(shd.virtual.Nanos()) / 1e6)
	}
	if shd.wallS > 0 {
		p.Speedup = seq.wallS / shd.wallS
	}
	return p, nil
}

// summary is the point's one-line CLI rendering.
func (p *ShardedPoint) summary() string {
	return fmt.Sprintf("%s (%s): %d nodes / %d shards, %s partition, %d windows (%d sequential, %.1f ev/win, %.1f win/vms), %d cross-shard frames, %.3fs vs %.3fs -> %.2fx, identical=%v, oversubscribed=%v\n",
		p.Name, p.Fabric, p.Nodes, p.Shards, p.Partition, p.Windows, p.SequentialWindows, p.EventsPerWindow,
		p.WindowsPerVirtualMS, p.CrossShardFrames, p.SequentialSeconds, p.ShardedSeconds, p.Speedup,
		p.Identical, p.Oversubscribed)
}

// driveRMPFlows runs one RMP flow per route, src -> dst, to completion:
// each flow's dst drains perFlow messages from a fresh sink mailbox
// named flow<i> while its src blasts them, msgBytes each. It returns each
// flow's virtual completion time.
func driveRMPFlows(cl *nectar.Cluster, routes [][2]int, perFlow, msgBytes int) ([]sim.Time, error) {
	ends := make([]sim.Time, len(routes))
	// One done flag per flow: the drains run on their shards' goroutines,
	// so a shared counter would race.
	done := make([]bool, len(routes))
	for fi, r := range routes {
		src, dst := cl.Node(r[0]), cl.Node(r[1])
		sink := dst.Mailboxes.Create(fmt.Sprintf("flow%d", fi))
		sink.SetCapacity(wire.MaxPayload * 4)
		addr := wire.MailboxAddr{Node: dst.ID, Box: sink.ID()}
		dst.CAB.Sched.Fork("drain", threads.SystemPriority, func(th *threads.Thread) {
			ctx := exec.OnCAB(th)
			for n := 0; n < perFlow; n++ {
				m := sink.BeginGet(ctx)
				sink.EndGet(ctx, m)
			}
			ends[fi] = th.Now()
			done[fi] = true
		})
		src.CAB.Sched.Fork("blast", threads.SystemPriority, func(th *threads.Thread) {
			ctx := exec.OnCAB(th)
			payload := make([]byte, msgBytes)
			for i := range payload {
				payload[i] = byte(i * (fi + 3))
			}
			for s := 0; s < perFlow; s++ {
				payload[0] = byte(s)
				if st := src.Transports.RMP.SendBlocking(ctx, addr, 0, payload); st != 1 {
					sim.Panicf("flow %d send %d failed: status %d", fi, s, st)
				}
			}
		})
	}
	for slices.Contains(done, false) {
		if err := cl.RunFor(sim.Millisecond); err != nil {
			return nil, err
		}
		if sim.Duration(cl.Now()) > maxVirtual {
			return nil, fmt.Errorf("workload exceeded %v of virtual time", maxVirtual)
		}
	}
	return ends, nil
}

// WriteJSON writes a report to path.
func WriteJSON(path string, report any) error {
	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
