// Package bench implements the paper's evaluation (§6): a regenerator for
// every table and figure, plus the micro-measurements quoted in the text
// and the ablations the paper proposes. Each experiment builds a fresh
// simulated cluster, runs the paper's workload, and returns the measured
// numbers alongside the paper's anchors so callers (the nectar-bench CLI,
// bench_test.go, and EXPERIMENTS.md) can print the comparison.
package bench

import (
	"fmt"
	"slices"

	"nectar"
	"nectar/internal/model"
	"nectar/internal/sim"
)

// maxVirtual caps an experiment's virtual runtime as a hang backstop.
const maxVirtual = 120 * sim.Second

// experimentShards is the shard count experiment clusters are built with
// (default 1). Like parallelism it is set once, before experiments run,
// from nectar-bench's -shards flag.
var experimentShards = 1

// SetExperimentShards sets the shard count of every experiment cluster
// built through newCluster (n < 1 counts as 1, the default). Results are
// byte-identical for every count — sharding only changes wall-clock time
// (shards_test.go asserts this).
func SetExperimentShards(n int) {
	if n < 1 {
		n = 1
	}
	experimentShards = n
}

// ExperimentShards reports the current experiment shard count.
func ExperimentShards() int { return experimentShards }

// newCluster builds a two-node cluster with the given cost model (nil =
// the paper's defaults).
func newCluster(cost *model.CostModel, rxThread bool) (*nectar.Cluster, *nectar.Node, *nectar.Node) {
	cl := nectar.NewCluster(&nectar.Config{Cost: cost, RxThreadMode: rxThread, Shards: experimentShards})
	a := cl.AddNode()
	b := cl.AddNode()
	return cl, a, b
}

// drive runs the cluster until every *done is true, in 1 ms steps,
// failing after maxVirtual.
func drive(cl *nectar.Cluster, done ...*bool) error {
	start := cl.Now()
	for slices.ContainsFunc(done, func(d *bool) bool { return !*d }) {
		if err := cl.RunFor(sim.Millisecond); err != nil {
			return err
		}
		if sim.Duration(cl.Now()-start) > maxVirtual {
			return fmt.Errorf("bench: experiment exceeded %v of virtual time", maxVirtual)
		}
	}
	return nil
}

// mbps converts bytes over a duration to megabits per second.
func mbps(bytes int, d sim.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) * 8 / d.Seconds() / 1e6
}

// Sizes1990 is the message-size sweep of Figures 7 and 8.
var Sizes1990 = []int{16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192}

// Point is one point of a throughput curve.
type Point struct {
	SizeB int
	Mbps  float64
}

// Curve is a named throughput series.
type Curve struct {
	Name   string
	Points []Point
}

// FormatCurves renders curves as an aligned text table (sizes as rows).
func FormatCurves(title string, curves []Curve) string {
	out := title + "\n"
	out += fmt.Sprintf("%8s", "bytes")
	for _, c := range curves {
		out += fmt.Sprintf("  %14s", c.Name)
	}
	out += "\n"
	if len(curves) == 0 {
		return out
	}
	for i := range curves[0].Points {
		out += fmt.Sprintf("%8d", curves[0].Points[i].SizeB)
		for _, c := range curves {
			out += fmt.Sprintf("  %11.1f Mb", c.Points[i].Mbps)
		}
		out += "\n"
	}
	return out
}
