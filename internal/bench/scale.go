package bench

import (
	"fmt"

	"nectar/internal/fabric"
	"nectar/internal/model"
)

// Scale experiment (BENCH_scale.json): datacenter-fabric sweep from 64 to
// 65,536 attachment points. Each point builds the whole HUB fabric
// (crossbars + trunks) from a fabric.Topology, leaves every node compact
// until the flow endpoints materialize, and drives cross-tier RMP flows
// sequentially and sharded (fabric-affinity partition). Recorded per
// point: bytes per attachment point after build (the compact-node
// figure), build time, the deduplicated route table size, both wall
// clocks, window statistics, and byte-identity of the flow table (plus
// the merged metrics snapshot where its JSON stays tractable).

// ScaleReport is the schema of BENCH_scale.json.
type ScaleReport struct {
	Host
	Points []ShardedPoint `json:"points"`
}

// leafSpine4x2 is the 64-node fabric of the smallest sweep point and of
// pdes's cross-cut variant.
func leafSpine4x2() *fabric.Topology { return fabric.LeafSpine(4, 2, 16) }

// fabricSpec is one sweep point: flows from the fabric's lower half to
// its upper half (f*stride -> f*stride + nodes/2), so every flow crosses
// HUB tiers — 2 trunk hops on leaf-spine, up to 4 on the fat-tree — and
// no two flows share an endpoint. 256 KB of CAB packet memory instead of
// the default 1 MB: the workload's windows never hold more than a few
// frames per node, and the savings are what let 64 stacks ride on a 65k
// fabric.
func fabricSpec(name string, nodes int, topo func() *fabric.Topology, flows, perFlow int) *pointSpec {
	return &pointSpec{
		name: name, topo: topo, nodes: nodes,
		flows:     crossFlows(flows, nodes/(2*flows), nodes/2, false),
		partition: fabricAffinity, shards: 8, perFlow: perFlow, msgBytes: 1024, cabBytes: 256 << 10,
		// The 65k point's snapshot enumerates a million link gauges.
		compareMetrics: nodes <= 4096,
	}
}

func scaleSpecs() []*pointSpec {
	return []*pointSpec{
		fabricSpec("leafspine_64", 64, leafSpine4x2, 16, 24),
		fabricSpec("leafspine_4096", 4096, func() *fabric.Topology { return fabric.LeafSpine(32, 8, 128) }, 32, 16),
		fabricSpec("fattree_65536", 65536, func() *fabric.Topology { return fabric.FatTree(64) }, 32, 8),
	}
}

// Scale runs the datacenter-fabric sweep. maxNodes > 0 caps the largest
// point (the CI smoke run stops at 4,096); 0 runs everything.
func Scale(cost *model.CostModel, maxNodes int) (*ScaleReport, error) {
	r := &ScaleReport{Host: thisHost()}
	for _, sp := range scaleSpecs() {
		if maxNodes > 0 && sp.nodes > maxNodes {
			continue
		}
		p, err := runPoint(cost, sp, false)
		if err != nil {
			return nil, fmt.Errorf("scale point %s: %w", sp.name, err)
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
	for i := range r.Points {
		p := &r.Points[i]
		out += p.summary()
		out += fmt.Sprintf("  %d hubs, %d trunks, %d tiers, %d materialized, %.0f bytes/node, build %.3fs, %d routes, metrics compared=%v\n",
			p.Hubs, p.Trunks, p.Tiers, p.Materialized, p.BytesPerNode, p.BuildSeconds, p.RouteEntries, p.MetricsCompared)
	}
	return out
}
