package bench

import (
	"bytes"
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

// Sharded-execution report (BENCH_pdes.json): wall-clock cost of the same
// multi-node workload run sequentially (one kernel) and sharded (one
// kernel per shard, coupled by the conservative lookahead scheduler),
// with byte-identity of the virtual-time results verified in-process.

// PdesReport is the schema of BENCH_pdes.json.
type PdesReport struct {
	Date       string `json:"date"`
	GoVersion  string `json:"go_version"`
	GoMaxProcs int    `json:"gomaxprocs"`
	// NumCPU is the host's core count. min(GoMaxProcs, NumCPU) is the
	// usable core count (sim.UsableCores); a speedup near or below 1.0
	// with fewer usable cores than shards means the host could not
	// physically run the shards in parallel, not that the coupling failed
	// to overlap.
	NumCPU int `json:"num_cpu"`

	Nodes           int `json:"nodes"`
	Flows           int `json:"flows"`
	MessagesPerFlow int `json:"messages_per_flow"`
	MessageBytes    int `json:"message_bytes"`
	// Partition is how nodes were assigned to shards: "flow-affinity"
	// (ShardByFlows co-locates each flow's endpoints) for the headline
	// runs, "round-robin" for the coupling-stress configuration.
	Partition string `json:"partition"`
	// Windows is the number of conservative safe windows the sharded run
	// executed; events-per-window is the batching the lookahead bought.
	Windows uint64 `json:"windows"`
	// EventsPerWindow is total kernel dispatches across all shards divided
	// by Windows: the mean batching each safe window achieved. Higher is
	// better — barrier overhead amortises over more simulation work.
	EventsPerWindow float64 `json:"events_per_window"`
	// WindowsPerVirtualMS normalises the window count by simulated time,
	// making runs of different length or on different hosts comparable.
	WindowsPerVirtualMS float64 `json:"windows_per_virtual_ms"`

	// WorkersEffective is the sharded leg's shard count after PdesShards'
	// clamp: one goroutine per shard, the coupling scheduler running
	// shard 0 and a worker each of the others.
	WorkersEffective int `json:"workers_effective"`

	// Oversubscribed flags a measurement where the shards outnumber the
	// usable cores (sim.UsableCores): the recorded speedup then reflects
	// time-sliced goroutines, not parallel hardware, and must not be read
	// as a scheduler verdict (the trap the original 0.85x-on-one-core run
	// of this file fell into).
	Oversubscribed bool `json:"oversubscribed"`

	SequentialSeconds float64 `json:"sequential_seconds"`
	ShardedSeconds    float64 `json:"sharded_seconds"`
	Speedup           float64 `json:"speedup"`
	// Identical means the sharded run's per-flow table and merged metrics
	// snapshot are byte-identical to the sequential run's.
	Identical bool `json:"identical_output"`

	// Table is the per-flow virtual-time result both runs produced.
	Table string `json:"table"`

	// Profile is the sharded run's wall-clock breakdown (nectar-bench
	// -prof); absent on unprofiled runs.
	Profile *prof.Report `json:"profile,omitempty"`

	// Variants are additional configurations run for scaling context
	// (e.g. the 32-node / 8-shard leg).
	Variants []PdesVariant `json:"variants,omitempty"`
}

// PdesVariant is one extra pdes configuration recorded alongside the
// main run.
type PdesVariant struct {
	Name                string  `json:"name"`
	Nodes               int     `json:"nodes"`
	Flows               int     `json:"flows"`
	MessagesPerFlow     int     `json:"messages_per_flow"`
	MessageBytes        int     `json:"message_bytes"`
	Shards              int     `json:"shards"`
	Partition           string  `json:"partition"`
	Windows             uint64  `json:"windows"`
	EventsPerWindow     float64 `json:"events_per_window"`
	WindowsPerVirtualMS float64 `json:"windows_per_virtual_ms"`
	Oversubscribed      bool    `json:"oversubscribed"` // as PdesReport.Oversubscribed
	SequentialSeconds   float64 `json:"sequential_seconds"`
	ShardedSeconds      float64 `json:"sharded_seconds"`
	Speedup             float64 `json:"speedup"`
	Identical           bool    `json:"identical_output"`
}

// pdesFlowResult is the virtual-time outcome of one pdes run.
type pdesFlowResult struct {
	table   string
	metrics []byte
	wallS   float64
	windows uint64       // safe windows executed
	events  uint64       // kernel dispatches summed over all shards
	virtual sim.Time     // simulated time at completion
	profile *prof.Report // wall-clock breakdown (nil unless profiled)
}

// eventsPerWindow is the mean dispatch batching per safe window.
func (r *pdesFlowResult) eventsPerWindow() float64 {
	if r.windows == 0 {
		return 0
	}
	return float64(r.events) / float64(r.windows)
}

// windowsPerVirtualMS is the window rate per simulated millisecond.
func (r *pdesFlowResult) windowsPerVirtualMS() float64 {
	if r.virtual <= 0 {
		return 0
	}
	return float64(r.windows) / (float64(r.virtual.Nanos()) / 1e6)
}

// runPdesFlows drives nodes/2 disjoint RMP flows (node 2i -> node 2i+1,
// each perFlow messages of msgBytes) on one cluster and returns the
// per-flow throughput table, the metrics snapshot JSON, and the wall
// clock. shards = 1 is the sequential leg, a one-domain coupling. With
// affinity set, ShardByFlows co-locates each flow's endpoints on one shard
// (the production partitioning: no simulated traffic crosses shards);
// without it, the default round-robin assignment makes every flow cross
// the HUB between shards, stressing the coupling on its data and ack paths
// in both directions.
func runPdesFlows(cost *model.CostModel, shards, nodes, perFlow, msgBytes int, affinity, profiled bool) (*pdesFlowResult, error) {
	nFlows := nodes / 2
	routes := make([][2]int, nFlows)
	for fi := 0; fi < nFlows; fi++ {
		routes[fi] = [2]int{2 * fi, 2*fi + 1}
		if fi%2 == 1 {
			// Alternate flow direction so that, under round-robin shard
			// assignment, every shard carries both senders and receivers
			// and windows have work on all shards at once.
			routes[fi] = [2]int{2*fi + 1, 2 * fi}
		}
	}

	var cfg nectar.Config
	cfg.Cost = cost
	if nodes > 16 {
		cfg.Topology = fabric.Star(nodes) // one crossbar large enough for the scaling leg
	}
	// The flow list is the complete traffic matrix of this workload, so
	// declare it: gateways whose declared peers are all local stop
	// constraining the safe bound (identical declaration on the
	// sequential leg keeps the enforcement byte-identical).
	cfg.Flows = routes
	cfg.Shards = shards
	if affinity {
		cfg.ShardOf = nectar.ShardByFlows(nodes, shards, routes)
	}
	start := time.Now() //nectar:allow-walltime measures the run's real wall clock for BENCH_pdes.json
	cl := nectar.NewCluster(&cfg)
	if profiled {
		cl.EnableProfiling()
	}
	ns := make([]*nectar.Node, nodes)
	for i := range ns {
		ns[i] = cl.AddNode()
	}

	ends, err := driveRMPFlows(cl, func(i int) *nectar.Node { return ns[i] }, routes, perFlow, msgBytes, "pdes")
	if err != nil {
		return nil, err
	}
	metrics := cl.MetricsSnapshot().JSON()
	wall := time.Since(start).Seconds() //nectar:allow-walltime measures the run's real wall clock for BENCH_pdes.json
	windows := cl.Windows()
	profile := cl.ProfileReport()
	var events uint64
	for _, k := range cl.Kernels() {
		events += k.Dispatched()
	}
	virtual := cl.Now()

	table := fmt.Sprintf("%6s %10s %12s %12s\n", "flow", "route", "done(us)", "Mbit/s")
	for fi := 0; fi < nFlows; fi++ {
		table += fmt.Sprintf("%6d %7d->%d %12.1f %12.1f\n",
			fi, routes[fi][0], routes[fi][1], ends[fi].Micros(),
			mbps(perFlow*msgBytes, sim.Duration(ends[fi])))
	}
	return &pdesFlowResult{table: table, metrics: metrics, wallS: wall, windows: windows,
		events: events, virtual: virtual, profile: profile}, nil
}

// driveRMPFlows runs one RMP flow per route, src -> dst, to completion:
// each flow's dst drains perFlow messages from a fresh sink mailbox
// named <label>.flow<i> while its src blasts them, msgBytes each. It
// returns each flow's virtual completion time. label also prefixes the
// failure diagnostics.
func driveRMPFlows(cl *nectar.Cluster, node func(int) *nectar.Node, routes [][2]int, perFlow, msgBytes int, label string) ([]sim.Time, error) {
	ends := make([]sim.Time, len(routes))
	// One done flag per flow: the drains run on their shards' goroutines,
	// so a shared counter would race.
	done := make([]bool, len(routes))
	for fi, r := range routes {
		src, dst := node(r[0]), node(r[1])
		sink := dst.Mailboxes.Create(fmt.Sprintf("%s.flow%d", label, fi))
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
					sim.Panicf("%s flow %d send %d failed: status %d", label, fi, s, st)
				}
			}
		})
	}
	for slices.Contains(done, false) {
		if err := cl.RunFor(sim.Millisecond); err != nil {
			return nil, err
		}
		if sim.Duration(cl.Now()) > maxVirtual {
			return nil, fmt.Errorf("%s: workload exceeded %v of virtual time", label, maxVirtual)
		}
	}
	return ends, nil
}

// Pdes runs the sharded-execution experiment: a 2*shards-node cluster
// (at least 4 nodes) with one RMP flow per node pair, once sequentially
// and once with `shards` shard kernels, verifying byte-identity of the
// flow table and metrics snapshot and reporting the wall-clock ratio.
// The sharded leg uses flow-affinity partitioning (ShardByFlows), the
// configuration a user tuning for throughput would pick; the round-robin
// stress configuration stays covered by the determinism tests. With
// profiled set, the sharded leg runs under the wall-clock profiler and
// the report carries its phase breakdown. A 32-node / 8-shard scaling
// variant is recorded alongside the main run. shards is clamped by
// PdesShards.
func Pdes(cost *model.CostModel, shards int, profiled bool) (*PdesReport, error) {
	shards = PdesShards(shards)
	nodes := 4 * shards
	if nodes > 16 {
		nodes = 16 // single 16-port HUB
	}
	const perFlow, msgBytes = 192, 1024

	seq, err := runPdesFlows(cost, 1, nodes, perFlow, msgBytes, false, false)
	if err != nil {
		return nil, fmt.Errorf("sequential run: %w", err)
	}
	shd, err := runPdesFlows(cost, shards, nodes, perFlow, msgBytes, true, profiled)
	if err != nil {
		return nil, fmt.Errorf("sharded run: %w", err)
	}

	r := &PdesReport{
		Date:                time.Now().UTC().Format("2006-01-02"), //nectar:allow-walltime report metadata, not simulation state
		GoVersion:           runtime.Version(),
		GoMaxProcs:          runtime.GOMAXPROCS(0),
		NumCPU:              runtime.NumCPU(),
		Nodes:               nodes,
		Flows:               nodes / 2,
		MessagesPerFlow:     perFlow,
		MessageBytes:        msgBytes,
		Partition:           "flow-affinity",
		Windows:             shd.windows,
		EventsPerWindow:     shd.eventsPerWindow(),
		WindowsPerVirtualMS: shd.windowsPerVirtualMS(),
		WorkersEffective:    shards,
		Oversubscribed:      oversubscribed(shards),
		SequentialSeconds:   seq.wallS,
		ShardedSeconds:      shd.wallS,
		Identical:           seq.table == shd.table && bytes.Equal(seq.metrics, shd.metrics),
		Table:               seq.table,
		Profile:             shd.profile,
	}
	if shd.wallS > 0 {
		r.Speedup = seq.wallS / shd.wallS
	}

	// Scaling leg: 32 nodes / 16 flows on an 8-shard cluster (crossbar
	// widened to 32 ports), same total message count as the main run.
	if v, err := pdesVariant("large_8shard", cost, 8, 32, 96, msgBytes); err != nil {
		return nil, fmt.Errorf("variant large_8shard: %w", err)
	} else {
		r.Variants = append(r.Variants, *v)
	}
	return r, nil
}

// PdesShards is the shard count Pdes runs for a requested count: at least
// 2, and at most 8 to keep >= 2 nodes per shard on the 16-port HUB.
func PdesShards(requested int) int { return min(max(requested, 2), 8) }

// oversubscribed reports whether a run of the given shard count has more
// shards than usable cores.
func oversubscribed(shards int) bool { return shards > sim.UsableCores() }

// pdesVariant runs one extra sequential-vs-sharded configuration with
// flow-affinity partitioning and summarises it.
func pdesVariant(name string, cost *model.CostModel, shards, nodes, perFlow, msgBytes int) (*PdesVariant, error) {
	seq, err := runPdesFlows(cost, 1, nodes, perFlow, msgBytes, false, false)
	if err != nil {
		return nil, fmt.Errorf("sequential run: %w", err)
	}
	shd, err := runPdesFlows(cost, shards, nodes, perFlow, msgBytes, true, false)
	if err != nil {
		return nil, fmt.Errorf("sharded run: %w", err)
	}
	v := &PdesVariant{
		Name:                name,
		Nodes:               nodes,
		Flows:               nodes / 2,
		MessagesPerFlow:     perFlow,
		MessageBytes:        msgBytes,
		Shards:              shards,
		Partition:           "flow-affinity",
		Windows:             shd.windows,
		EventsPerWindow:     shd.eventsPerWindow(),
		WindowsPerVirtualMS: shd.windowsPerVirtualMS(),
		Oversubscribed:      oversubscribed(shards),
		SequentialSeconds:   seq.wallS,
		ShardedSeconds:      shd.wallS,
		Identical:           seq.table == shd.table && bytes.Equal(seq.metrics, shd.metrics),
	}
	if shd.wallS > 0 {
		v.Speedup = seq.wallS / shd.wallS
	}
	return v, nil
}

// Format renders the report for the CLI.
func (r *PdesReport) Format() string {
	out := "Sharded conservative parallel simulation (per-channel lookahead)\n"
	out += fmt.Sprintf("env: gomaxprocs=%d num_cpu=%d shards=%d (scheduler runs shard 0, %d worker(s) the rest)\n",
		r.GoMaxProcs, r.NumCPU, r.WorkersEffective, r.WorkersEffective-1)
	if r.Oversubscribed {
		out += fmt.Sprintf("WARNING: %d shards on %d usable core(s): the speedup below measures time-sliced goroutines, not parallel hardware\n",
			r.WorkersEffective, min(r.GoMaxProcs, r.NumCPU))
	}
	out += r.Table
	out += fmt.Sprintf("%d nodes, %d flows x %d msgs x %dB, %s partition\n",
		r.Nodes, r.Flows, r.MessagesPerFlow, r.MessageBytes, r.Partition)
	out += fmt.Sprintf("%d safe windows, %.1f events/window, %.1f windows/virtual-ms\n",
		r.Windows, r.EventsPerWindow, r.WindowsPerVirtualMS)
	out += fmt.Sprintf("sequential %.2fs, %d shards %.2fs -> %.2fx, identical=%v\n",
		r.SequentialSeconds, r.WorkersEffective, r.ShardedSeconds, r.Speedup, r.Identical)
	for _, v := range r.Variants {
		out += fmt.Sprintf("variant %s: %d nodes / %d shards, %d windows (%.1f ev/win, %.1f win/vms), %.2fs vs %.2fs -> %.2fx, identical=%v, oversubscribed=%v\n",
			v.Name, v.Nodes, v.Shards, v.Windows, v.EventsPerWindow, v.WindowsPerVirtualMS,
			v.SequentialSeconds, v.ShardedSeconds, v.Speedup, v.Identical, v.Oversubscribed)
	}
	if r.Profile != nil {
		out += "\n" + r.Profile.Format(0)
	}
	return out
}

// WriteJSON writes the report to path.
func (r *PdesReport) WriteJSON(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
