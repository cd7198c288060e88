package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"nectar"
	"nectar/internal/fabric"
	"nectar/internal/model"
	"nectar/internal/sim"
)

// Scale experiment (BENCH_scale.json): datacenter-fabric sweep from 64 to
// 65,536 attachment points. Each point builds the whole HUB fabric
// (crossbars + trunks) from a fabric.Topology, leaves every node compact
// until the flow endpoints materialize, and drives cross-tier RMP flows
// sequentially and sharded (flow-affinity partition over the fabric).
// Recorded per point: bytes per attachment point after build (the compact-
// node figure the tentpole is about), build time, the deduplicated route
// table size, both wall clocks, window statistics, and byte-identity of
// the flow table (plus the merged metrics snapshot where its JSON stays
// tractable — a 262k-trunk fabric registers four gauges per link, so the
// 65,536-point compares flow tables only).

// ScalePoint is one fabric size of the sweep.
type ScalePoint struct {
	Fabric string `json:"fabric"`
	Nodes  int    `json:"nodes"` // attachment points
	Hubs   int    `json:"hubs"`
	Trunks int    `json:"trunks"` // directed inter-HUB links
	Tiers  int    `json:"tiers"`

	Flows           int `json:"flows"`
	MessagesPerFlow int `json:"messages_per_flow"`
	MessageBytes    int `json:"message_bytes"`
	Materialized    int `json:"materialized"` // nodes with booted stacks
	Shards          int `json:"shards"`
	// Oversubscribed marks a point whose shards outnumber the usable
	// cores (sim.UsableCores): its speedup measures time-sliced
	// goroutines, not parallel hardware.
	Oversubscribed bool `json:"oversubscribed"`

	// BuildSeconds is fabric construction plus endpoint materialization;
	// BytesPerNode is the post-build heap growth divided by Nodes — the
	// whole fabric and arena amortized over every attachment point.
	BuildSeconds float64 `json:"build_seconds"`
	BytesPerNode float64 `json:"bytes_per_node"`

	// RouteEntries/RouteBytes are the shared deduplicated route table:
	// every CAB entry references these strings, nothing is copied.
	RouteEntries int `json:"route_entries"`
	RouteBytes   int `json:"route_bytes"`

	SequentialSeconds float64 `json:"sequential_seconds"`
	ShardedSeconds    float64 `json:"sharded_seconds"`
	Speedup           float64 `json:"speedup"`

	Windows          uint64  `json:"windows"`
	EventsPerWindow  float64 `json:"events_per_window"`
	CrossShardFrames uint64  `json:"cross_shard_frames"`

	// Identical: the sharded flow table matches the sequential one
	// byte-for-byte; MetricsCompared marks whether the merged metrics
	// snapshot was also compared (and matched).
	Identical       bool `json:"identical_output"`
	MetricsCompared bool `json:"metrics_compared"`
}

// ScaleReport is the schema of BENCH_scale.json.
type ScaleReport struct {
	Date       string       `json:"date"`
	GoVersion  string       `json:"go_version"`
	GoMaxProcs int          `json:"gomaxprocs"`
	NumCPU     int          `json:"num_cpu"`
	Points     []ScalePoint `json:"points"`
}

// scaleSpec fixes one sweep point's fabric and workload shape.
type scaleSpec struct {
	fabricName string
	build      func() *fabric.Topology
	nodes      int
	flows      int
	perFlow    int
	msgBytes   int
	shards     int
	// compareMetrics additionally byte-compares the merged metrics
	// snapshots (off for the 65k point: its snapshot enumerates a million
	// link gauges).
	compareMetrics bool
}

// scaleSpecs is the sweep: every flow spans HUB tiers (src in the lower
// half of the fabric, dst in the upper half), so frames cross 2 trunk
// hops on leaf-spine and up to 4 on the fat-tree.
func scaleSpecs() []scaleSpec {
	return []scaleSpec{
		{"leaf-spine 4x2, 16/leaf", func() *fabric.Topology { return fabric.LeafSpine(4, 2, 16) },
			64, 16, 24, 1024, 8, true},
		{"leaf-spine 32x8, 128/leaf", func() *fabric.Topology { return fabric.LeafSpine(32, 8, 128) },
			4096, 32, 16, 1024, 8, true},
		{"fat-tree k=64", func() *fabric.Topology { return fabric.FatTree(64) },
			65536, 32, 8, 1024, 8, false},
	}
}

// scaleFlows places flow f at (f*stride -> f*stride + nodes/2): sources
// spread over the fabric's lower half, destinations over the upper, so
// every flow crosses tiers and no two flows share an endpoint.
func scaleFlows(sp scaleSpec) [][2]int {
	flows := make([][2]int, sp.flows)
	stride := sp.nodes / (2 * sp.flows)
	for f := range flows {
		flows[f] = [2]int{f * stride, f*stride + sp.nodes/2}
	}
	return flows
}

// scaleRunResult is one leg (sequential or sharded) of a sweep point.
type scaleRunResult struct {
	table        string
	metrics      []byte // nil when not captured
	wallS        float64
	buildS       float64
	bytesPerNode float64
	routeEntries int
	routeBytes   int
	materialized int
	windows      uint64
	events       uint64
	crossShard   uint64
}

// runScaleLeg builds the fabric cluster, materializes the flow endpoints,
// drives the flows to completion and measures. The sequential leg is
// shards = 1, a one-domain coupling.
func runScaleLeg(cost *model.CostModel, sp scaleSpec, flows [][2]int, shards int, captureMetrics bool) (*scaleRunResult, error) {
	topo := sp.build()
	cfg := nectar.Config{
		Cost:     cost,
		Topology: topo,
		Flows:    flows,
		// 256 KB of CAB packet memory instead of the default 1 MB: the
		// workload's windows never hold more than a few frames per node,
		// and the savings are what let 64 stacks ride on a 65k fabric.
		CABDataBytes: 256 << 10,
		Shards:       shards,
		ShardOf:      nectar.ShardByFlowsOnFabric(topo, shards, flows),
	}

	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	buildStart := time.Now() //nectar:allow-walltime measures fabric build time for BENCH_scale.json

	cl := nectar.NewCluster(&cfg)
	for _, f := range flows {
		cl.Node(f[0])
		cl.Node(f[1])
	}

	buildS := time.Since(buildStart).Seconds() //nectar:allow-walltime measures fabric build time for BENCH_scale.json
	runtime.GC()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	bytesPerNode := 0.0
	if m1.HeapAlloc > m0.HeapAlloc {
		bytesPerNode = float64(m1.HeapAlloc-m0.HeapAlloc) / float64(sp.nodes)
	}

	start := time.Now() //nectar:allow-walltime measures the run's real wall clock for BENCH_scale.json
	ends, err := driveRMPFlows(cl, cl.Node, flows, sp.perFlow, sp.msgBytes, "scale")
	if err != nil {
		return nil, err
	}
	wallS := time.Since(start).Seconds() //nectar:allow-walltime measures the run's real wall clock for BENCH_scale.json

	table := fmt.Sprintf("%6s %14s %12s %12s\n", "flow", "route", "done(us)", "Mbit/s")
	for fi, f := range flows {
		table += fmt.Sprintf("%6d %6d->%-6d %12.1f %12.1f\n",
			fi, f[0], f[1], ends[fi].Micros(),
			mbps(sp.perFlow*sp.msgBytes, sim.Duration(ends[fi])))
	}
	var metrics []byte
	if captureMetrics {
		metrics = cl.MetricsSnapshot().JSON()
	}
	var events uint64
	for _, k := range cl.Kernels() {
		events += k.Dispatched()
	}
	entries, routeBytes := cl.RouteTableStats()
	return &scaleRunResult{
		table: table, metrics: metrics, wallS: wallS, buildS: buildS,
		bytesPerNode: bytesPerNode, routeEntries: entries, routeBytes: routeBytes,
		materialized: cl.MaterializedNodes(), windows: cl.Windows(), events: events,
		crossShard: cl.CrossShardFrames(),
	}, nil
}

// runScalePoint runs one sweep point sequentially and sharded and compares.
func runScalePoint(cost *model.CostModel, sp scaleSpec) (*ScalePoint, error) {
	flows := scaleFlows(sp)
	topo := sp.build()
	seq, err := runScaleLeg(cost, sp, flows, 1, sp.compareMetrics)
	if err != nil {
		return nil, fmt.Errorf("sequential leg: %w", err)
	}
	shd, err := runScaleLeg(cost, sp, flows, sp.shards, sp.compareMetrics)
	if err != nil {
		return nil, fmt.Errorf("sharded leg: %w", err)
	}
	p := &ScalePoint{
		Fabric: sp.fabricName, Nodes: sp.nodes,
		Hubs: len(topo.HubPorts), Trunks: len(topo.Trunks), Tiers: topo.Tiers(),
		Flows: sp.flows, MessagesPerFlow: sp.perFlow, MessageBytes: sp.msgBytes,
		Materialized: shd.materialized, Shards: sp.shards, Oversubscribed: oversubscribed(sp.shards),
		BuildSeconds: shd.buildS, BytesPerNode: shd.bytesPerNode,
		RouteEntries: shd.routeEntries, RouteBytes: shd.routeBytes,
		SequentialSeconds: seq.wallS, ShardedSeconds: shd.wallS,
		Windows: shd.windows, CrossShardFrames: shd.crossShard,
		Identical:       seq.table == shd.table,
		MetricsCompared: sp.compareMetrics,
	}
	if sp.compareMetrics {
		p.Identical = p.Identical && bytes.Equal(seq.metrics, shd.metrics)
	}
	if shd.windows > 0 {
		p.EventsPerWindow = float64(shd.events) / float64(shd.windows)
	}
	if shd.wallS > 0 {
		p.Speedup = seq.wallS / shd.wallS
	}
	return p, nil
}

// Scale runs the datacenter-fabric sweep. maxNodes > 0 caps the largest
// point (the CI smoke run stops at 4,096); 0 runs everything.
func Scale(cost *model.CostModel, maxNodes int) (*ScaleReport, error) {
	r := &ScaleReport{
		Date:       time.Now().UTC().Format("2006-01-02"), //nectar:allow-walltime report metadata, not simulation state
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	for _, sp := range scaleSpecs() {
		if maxNodes > 0 && sp.nodes > maxNodes {
			continue
		}
		p, err := runScalePoint(cost, sp)
		if err != nil {
			return nil, fmt.Errorf("scale point %s: %w", sp.fabricName, err)
		}
		r.Points = append(r.Points, *p)
	}
	if len(r.Points) == 0 {
		return nil, fmt.Errorf("scale: no sweep point fits under %d nodes", maxNodes)
	}
	return r, nil
}

// Format renders the report for the CLI.
func (r *ScaleReport) Format() string {
	out := "Datacenter-fabric scaling (compact nodes, hierarchical routes, sharded trunks)\n"
	out += fmt.Sprintf("env: gomaxprocs=%d num_cpu=%d\n", r.GoMaxProcs, r.NumCPU)
	out += fmt.Sprintf("%8s %6s %7s %6s %6s %9s %8s %7s %8s %8s %7s %5s\n",
		"nodes", "hubs", "trunks", "mat", "shards", "bytes/node", "build(s)", "routes", "seq(s)", "shard(s)", "speedup", "ident")
	for _, p := range r.Points {
		out += fmt.Sprintf("%8d %6d %7d %6d %6d %9.0f %8.2f %7d %8.2f %8.2f %6.2fx %5v\n",
			p.Nodes, p.Hubs, p.Trunks, p.Materialized, p.Shards, p.BytesPerNode,
			p.BuildSeconds, p.RouteEntries, p.SequentialSeconds, p.ShardedSeconds,
			p.Speedup, p.Identical)
	}
	for _, p := range r.Points {
		out += fmt.Sprintf("%s: %d windows, %.1f events/window, %d cross-shard frames, metrics compared=%v, oversubscribed=%v\n",
			p.Fabric, p.Windows, p.EventsPerWindow, p.CrossShardFrames, p.MetricsCompared, p.Oversubscribed)
	}
	return out
}

// WriteJSON writes the report to path.
func (r *ScaleReport) WriteJSON(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
