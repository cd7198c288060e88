package bench

import (
	"testing"

	"nectar/internal/sim"
)

// TestScaleSmoke runs the smallest sweep point end to end: a 64-node
// leaf-spine fabric, sequential and 8-shard legs, byte-identity checked
// in-process. The 4,096- and 65,536-node points stay out of the unit
// suite (CI runs the 4,096 point in its scale-smoke job).
func TestScaleSmoke(t *testing.T) {
	r, err := Scale(nil, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 1 {
		t.Fatalf("points = %d, want 1", len(r.Points))
	}
	p := r.Points[0]
	if p.Nodes != 64 || p.Tiers != 2 {
		t.Errorf("point shape = %d nodes / %d tiers, want 64 / 2", p.Nodes, p.Tiers)
	}
	if !p.Identical {
		t.Error("sharded output not byte-identical to sequential")
	}
	if !p.MetricsCompared {
		t.Error("metrics snapshot not compared at the smoke size")
	}
	if p.Materialized != 2*p.Flows {
		t.Errorf("materialized = %d, want %d (two stacks per flow)", p.Materialized, 2*p.Flows)
	}
	if p.Windows == 0 || p.CrossShardFrames == 0 {
		t.Errorf("windows=%d cross_shard_frames=%d: the 64-node point should exercise the coupling",
			p.Windows, p.CrossShardFrames)
	}
	if want := p.Shards > sim.UsableCores(); p.Oversubscribed != want {
		t.Errorf("%d shards on %d usable cores stamped oversubscribed=%v, want %v",
			p.Shards, sim.UsableCores(), p.Oversubscribed, want)
	}
	if p.BytesPerNode <= 0 {
		t.Errorf("bytes_per_node = %f not measured", p.BytesPerNode)
	}
	if p.RouteEntries != 4*p.Flows {
		t.Errorf("route table entries = %d, want %d (pair + self routes per flow)",
			p.RouteEntries, 4*p.Flows)
	}
	if r.Format() == "" {
		t.Error("empty format")
	}
}
