package bench

import (
	"fmt"
	"runtime"

	"nectar/internal/fabric"
	"nectar/internal/hw/hub"
	"nectar/internal/model"
)

// Sharded-execution report (BENCH_pdes.json): wall-clock cost of the same
// multi-node workload run sequentially (one kernel) and sharded (one
// kernel per shard, coupled by the conservative lookahead scheduler),
// with byte-identity of the virtual-time results verified in-process.

// PdesReport is the schema of BENCH_pdes.json: the main point's fields
// at the top level, then the variant points run for context.
type PdesReport struct {
	Host
	ShardedPoint
	Variants []ShardedPoint `json:"variants,omitempty"`
}

// pdesSpec is the star workload: nodes/2 RMP flows between neighbouring
// nodes, every odd flow reversed so that under round-robin every shard
// carries both senders and receivers.
func pdesSpec(name string, nodes, shards, perFlow, msgBytes int, part partition) *pointSpec {
	return &pointSpec{
		name:  name,
		topo:  func() *fabric.Topology { return fabric.Star(max(nodes, hub.DefaultPorts)) },
		nodes: nodes, flows: crossFlows(nodes/2, 2, 1, true), partition: part,
		shards: shards, perFlow: perFlow, msgBytes: msgBytes, compareMetrics: true,
	}
}

// pdesVariants are the points recorded alongside the main run.
func pdesVariants() []*pointSpec {
	return []*pointSpec{
		// 32 nodes / 16 flows on 8 shards (the crossbar widened to 32
		// ports), the same total message count as the main run.
		pdesSpec("large_8shard", 32, 8, 96, 1024, flowAffinity),
		// Every flow crosses the leaf pairs' shard boundary, in both
		// directions, so both shards are busy in every window: the
		// coupling's cross-shard path under load.
		{
			name: "crosscut_2shard", topo: leafSpine4x2, nodes: 64, flows: crossFlows(16, 2, 32, true),
			partition: partition{"leaf-pair", func(*pointSpec, *fabric.Topology, int) func(int) int {
				return func(n int) int { return n / 32 } // leaves 0-1 | leaves 2-3
			}},
			shards: 2, perFlow: 24, msgBytes: 1024, cabBytes: 256 << 10, compareMetrics: true,
		},
	}
}

// Pdes runs the sharded-execution experiment: a star of 4*shards nodes
// (at most 16, one HUB) with one RMP flow per node pair, once
// sequentially and once with `shards` shard kernels partitioned by
// ShardByFlows, the configuration a user tuning for throughput would
// pick, then the variant points. With profiled set, the main point's
// sharded leg runs under the wall-clock profiler. shards is chosen by
// PdesShards.
func Pdes(cost *model.CostModel, shards int, profiled bool) (*PdesReport, error) {
	shards = PdesShards(shards)
	p, err := runPoint(cost, pdesSpec("", min(4*shards, 16), shards, 192, 1024, flowAffinity), profiled)
	if err != nil {
		return nil, err
	}
	r := &PdesReport{Host: thisHost(), ShardedPoint: *p}
	for _, sp := range pdesVariants() {
		v, err := runPoint(cost, sp, false)
		if err != nil {
			return nil, fmt.Errorf("variant %s: %w", sp.name, err)
		}
		r.Variants = append(r.Variants, *v)
	}
	return r, nil
}

// PdesShards is the shard count Pdes runs for a requested count. Below 2
// (the -shards default is 1) it takes GOMAXPROCS, capped at 4; the count
// is at least 2, and at most 8 to keep >= 2 nodes per shard on the
// 16-port HUB.
func PdesShards(requested int) int {
	if requested < 2 {
		requested = min(runtime.GOMAXPROCS(0), 4)
	}
	return min(max(requested, 2), 8)
}

// Format renders the report for the CLI.
func (r *PdesReport) Format() string {
	out := "Sharded conservative parallel simulation (per-channel lookahead)\n"
	out += fmt.Sprintf("env: gomaxprocs=%d num_cpu=%d shards=%d (scheduler runs shard 0, %d worker(s) the rest)\n",
		r.GoMaxProcs, r.NumCPU, r.Shards, r.Shards-1)
	if r.Oversubscribed {
		out += fmt.Sprintf("WARNING: %d shards on %d usable core(s): the speedup below measures time-sliced goroutines, not parallel hardware\n",
			r.Shards, min(r.GoMaxProcs, r.NumCPU))
	}
	out += r.Table
	out += fmt.Sprintf("%d nodes, %d flows x %d msgs x %dB, %s partition\n",
		r.Nodes, r.Flows, r.MessagesPerFlow, r.MessageBytes, r.Partition)
	out += fmt.Sprintf("%d safe windows, %.1f events/window, %.1f windows/virtual-ms\n",
		r.Windows, r.EventsPerWindow, r.WindowsPerVirtualMS)
	out += fmt.Sprintf("sequential %.3fs, %d shards %.3fs -> %.2fx, identical=%v\n",
		r.SequentialSeconds, r.Shards, r.ShardedSeconds, r.Speedup, r.Identical)
	for i := range r.Variants {
		out += "variant " + r.Variants[i].summary()
	}
	if r.Profile != nil {
		out += "\n" + r.Profile.Format(0)
	}
	return out
}
