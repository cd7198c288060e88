package nectar

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"nectar/internal/fabric"
	"nectar/internal/hw/hub"
	"nectar/internal/obs"
	"nectar/internal/rt/exec"
	"nectar/internal/rt/threads"
	"nectar/internal/sim"
)

var updateSnapshot = flag.Bool("update", false, "rewrite the goldens under testdata (fabric snapshot, gateway bounds) from the current simulator")

// snapshotFlows are the cross-pod flows of runSnapshotFabric: a FatTree(4)
// has four pods of four hosts, and each flow leaves its pod, so frames
// climb to the core crossbars and back down.
var snapshotFlows = [][2]int{{0, 5}, {9, 14}, {3, 12}}

// runSnapshotFabric builds a FatTree(4) cluster on the given number of
// shards, runs the snapshotFlows to completion (16 RMP messages of 512 B
// each) and returns the cluster.
func runSnapshotFabric(t *testing.T, shards int) *Cluster {
	t.Helper()
	const perFlow = 16
	cl := NewCluster(&Config{Topology: fabric.FatTree(4), Flows: snapshotFlows, Shards: shards})
	done := make([]bool, len(snapshotFlows))
	for fi, f := range snapshotFlows {
		fi, src, dst := fi, cl.Node(f[0]), cl.Node(f[1])
		sink := dst.Mailboxes.Create(fmt.Sprintf("flow%d.sink", fi))
		addr := sink.Addr()
		dst.CAB.Sched.Fork("drain", threads.SystemPriority, func(th *threads.Thread) {
			ctx := exec.OnCAB(th)
			for n := 0; n < perFlow; n++ {
				sink.EndGet(ctx, sink.BeginGet(ctx))
			}
			done[fi] = true
		})
		src.CAB.Sched.Fork("blast", threads.SystemPriority, func(th *threads.Thread) {
			ctx := exec.OnCAB(th)
			payload := make([]byte, 512)
			for s := 0; s < perFlow; s++ {
				payload[0] = byte(s)
				if st := src.Transports.RMP.SendBlocking(ctx, addr, 0, payload); st != 1 {
					panic(fmt.Sprintf("flow %d send %d failed: status %d", fi, s, st))
				}
			}
		})
	}
	for fi := range done {
		for !done[fi] {
			if err := cl.RunFor(10 * sim.Millisecond); err != nil {
				t.Fatal(err)
			}
			if cl.Now() > sim.Time(10*sim.Second) {
				t.Fatalf("snapshot fabric stalled (shards=%d, done=%v)", shards, done)
			}
		}
	}
	return cl
}

// TestFabricSnapshotGolden pins the whole metrics snapshot of a small
// fat tree with cross-pod traffic — every gauge, counter and histogram of
// every CAB, host, fiber and HUB — to testdata/fabric_snapshot.golden,
// at one shard and at two. Run with -update to rewrite the golden after
// an intended change to what the simulator counts.
func TestFabricSnapshotGolden(t *testing.T) {
	golden := filepath.Join("testdata", "fabric_snapshot.golden")
	for _, shards := range []int{1, 2} {
		cl := runSnapshotFabric(t, shards)
		snap := cl.MetricsSnapshot()
		// The flows cross HUB tiers and put frames on the fibers, so the
		// golden pins non-zero fiber and HUB gauges.
		for _, name := range []string{"hub_forwarded", "frames", "bytes"} {
			if snap.Sum(obs.LayerFiber, name) == 0 {
				t.Fatalf("shards=%d: fiber %s sums to zero; the flows did not cross the fabric", shards, name)
			}
		}
		got := append(snap.JSON(), '\n')
		if *updateSnapshot && shards == 1 {
			if err := os.WriteFile(golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("shards=%d: metrics snapshot differs from %s; first divergence:\ngot:  %s\nwant: %s",
				shards, golden, firstDiffLine(string(got), string(want)), firstDiffLine(string(want), string(got)))
		}
	}
}

// TestMetricKeysUnique checks the registry's uniqueness rule on a star, a
// leaf-spine and a fat-tree cluster with every node materialized: no
// (layer, name, scope) is reported twice by one registry's gauge sources,
// and no snapshot entry shares its key with another. Gauge values sum
// across registries, so a duplicate would silently double a count.
func TestMetricKeysUnique(t *testing.T) {
	for _, tc := range []struct {
		name string
		topo *fabric.Topology
	}{
		{"star", fabric.Star(hub.DefaultPorts)},
		{"leaf-spine", fabric.LeafSpine(4, 2, 2)},
		{"fat-tree", fabric.FatTree(4)},
	} {
		cl := NewCluster(&Config{Topology: tc.topo})
		for i := 0; i < tc.topo.NodeCount(); i++ {
			cl.Node(i)
		}
		for si, k := range cl.Kernels() {
			type key struct {
				layer       obs.Layer
				name, scope string
			}
			seen := make(map[key]bool)
			obs.Ensure(k).Metrics().Gauges(func(layer obs.Layer, name, scope string, _ uint64) {
				k := key{layer, name, scope}
				if seen[k] {
					t.Errorf("%s: shard %d reports gauge %s/%s/%s twice", tc.name, si, layer, name, scope)
				}
				seen[k] = true
			})
			if len(seen) == 0 {
				t.Errorf("%s: shard %d reports no gauges", tc.name, si)
			}
		}
		entries := cl.MetricsSnapshot().Entries
		for i := 1; i < len(entries); i++ {
			a, b := entries[i-1], entries[i]
			if a.Layer == b.Layer && a.Name == b.Name && a.Scope == b.Scope {
				t.Errorf("%s: snapshot has %s/%s/%s as both %s and %s", tc.name, a.Layer, a.Name, a.Scope, a.Kind, b.Kind)
			}
		}
	}
}
