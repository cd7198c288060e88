package nectar

import (
	"fmt"
	"testing"

	"nectar/internal/fabric"
)

// TestFabricBuildAllocs pins the fabric's slab build: the HUBs, their port
// tables, the trunks and all their names are a fixed number of
// allocations, so a FatTree(16) cluster (320 HUBs, 4,096 trunks) costs
// what a FatTree(8) one (80 HUBs, 512 trunks) does, within a small
// constant. A per-HUB, per-port or per-trunk allocation fails both
// checks.
func TestFabricBuildAllocs(t *testing.T) {
	build := func(k int) float64 {
		return testing.AllocsPerRun(5, func() {
			NewCluster(&Config{Topology: fabric.FatTree(k)})
		})
	}
	k8, k16 := build(8), build(16)
	if d := k16 - k8; d < -4 || d > 4 {
		t.Errorf("FatTree(16) build allocates %.0f objects, FatTree(8) %.0f; want the same within 4", k16, k8)
	}
	if k16 >= 200 {
		t.Errorf("FatTree(16) build allocates %.0f objects, want fewer than 200", k16)
	}
}

// TestFabricNames checks that every HUB and trunk name, cut from the
// fabric's one name buffer, is byte for byte the name fmt.Sprintf gives,
// at one shard and at two (where trunks run on their owners' kernels).
// Gauges, captures, traces and misroute diagnostics all read these names.
func TestFabricNames(t *testing.T) {
	for _, topo := range []func() *fabric.Topology{
		func() *fabric.Topology { return fabric.Star(16) },
		func() *fabric.Topology { return fabric.LeafSpine(4, 2, 16) },
		func() *fabric.Topology { return fabric.FatTree(4) },
	} {
		// The name buffer is sized up front for every name, so cutting
		// them never grows it.
		tp := topo()
		names := newFabricNames(tp)
		sized := names.b.Cap()
		for i := range tp.HubPorts {
			names.hub(i)
		}
		for _, tr := range tp.Trunks {
			names.trunk(tr)
		}
		if names.b.Cap() != sized {
			t.Errorf("%s: the name buffer grew from %d to %d bytes", tp.Name, sized, names.b.Cap())
		}
		for _, shards := range []int{1, 2} {
			tp := topo()
			cl := NewCluster(&Config{Topology: tp, Shards: shards})
			if len(cl.Hubs) != tp.Hubs() {
				t.Fatalf("%s: %d HUBs, want %d", tp.Name, len(cl.Hubs), tp.Hubs())
			}
			for i, h := range cl.Hubs {
				if want := fmt.Sprintf("hub%d", i); h.Name() != want {
					t.Errorf("%s, %d shards: HUB %d is named %q, want %q", tp.Name, shards, i, h.Name(), want)
				}
			}
			if len(cl.trunks) != len(tp.Trunks) {
				t.Fatalf("%s: %d trunk links, want %d", tp.Name, len(cl.trunks), len(tp.Trunks))
			}
			for ti, tr := range tp.Trunks {
				want := fmt.Sprintf("hub%d.%d->hub%d", tr.FromHub, tr.FromPort, tr.ToHub)
				l := cl.Hubs[tr.FromHub].OutLink(tr.FromPort)
				if l != &cl.trunks[ti] {
					t.Fatalf("%s: hub%d's output port %d is not trunk %d's link", tp.Name, tr.FromHub, tr.FromPort, ti)
				}
				if l.Name() != want {
					t.Errorf("%s, %d shards: trunk %d is named %q, want %q", tp.Name, shards, ti, l.Name(), want)
				}
			}
		}
	}
}
