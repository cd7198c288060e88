package nectar

import (
	"fmt"
	"testing"

	"nectar/internal/fabric"
	"nectar/internal/hw/fiber"
	"nectar/internal/hw/hub"
)

// TestCrossDecisionAgrees checks that the two places deciding whether a
// HUB forward crosses shards agree: every gateway's cross function (built
// by crossFn), which bounds the shard's earliest output, and the HUB's
// own decision in PacketArriving (Hub.ForwardDomain), which sends the
// frame. It asks both about every route byte at every gateway, the CAB
// uplinks of all nodes and every trunk, on a star, a leaf-spine and a fat
// tree at 2 and 4 shards, under a round-robin partition and one that
// gives each shard a contiguous block of nodes.
func TestCrossDecisionAgrees(t *testing.T) {
	topos := []struct {
		name string
		topo func() *fabric.Topology
	}{
		{"Star", func() *fabric.Topology { return nil }},
		{"LeafSpine(4,2,16)", func() *fabric.Topology { return fabric.LeafSpine(4, 2, 16) }},
		{"FatTree(4)", func() *fabric.Topology { return fabric.FatTree(4) }},
	}
	for _, tp := range topos {
		for _, shards := range []int{2, 4} {
			for _, part := range []string{"round-robin", "blocks"} {
				t.Run(fmt.Sprintf("%s/%d/%s", tp.name, shards, part), func(t *testing.T) {
					cfg := &Config{Topology: tp.topo(), Shards: shards}
					if part == "blocks" {
						nodes := hub.DefaultPorts
						if cfg.Topology != nil {
							nodes = cfg.Topology.NodeCount()
						}
						cfg.ShardOf = func(i int) int { return i * shards / nodes }
					}
					cl := NewCluster(cfg)
					for i := 0; i < cl.NodeCount(); i++ {
						cl.Node(i)
					}
					crossing := 0
					check := func(what string, g *fiber.Gateway, hb *hub.Hub, in int) {
						for b := 0; b < 256; b++ {
							dst, cross := g.Cross(byte(b))
							want := hb.ForwardDomain(in, b)
							if cross != (want != nil) || cross && dst != want.ID() {
								t.Fatalf("%s, route byte %d: gateway says (%d, %v), HUB forwards to %v", what, b, dst, cross, want)
							}
							if cross {
								crossing++
							}
						}
					}
					topo := cl.Topology()
					for _, n := range cl.Nodes {
						check(fmt.Sprintf("node %d uplink", n.idx), &n.gw,
							cl.Hubs[topo.NodeHub[n.idx]], int(topo.NodePort[n.idx]))
					}
					if len(cl.gateways) != len(topo.Trunks) {
						t.Fatalf("%d trunk gateways for %d trunks", len(cl.gateways), len(topo.Trunks))
					}
					for i, tr := range topo.Trunks {
						check(fmt.Sprintf("trunk %d", i), &cl.gateways[i], cl.Hubs[tr.ToHub], tr.ToPort)
					}
					if crossing == 0 {
						t.Fatal("no route byte crosses shards at any gateway")
					}
				})
			}
		}
	}
}
