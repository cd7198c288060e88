package nectar

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"nectar/internal/fabric"
	"nectar/internal/hw/fiber"
	"nectar/internal/rt/exec"
	"nectar/internal/rt/threads"
	"nectar/internal/sim"
)

// gatewayBoundsGolden holds the bounds TestShardedGatewayBounds records.
const gatewayBoundsGolden = "testdata/gateway_bounds.golden"

// TestShardedGatewayBounds pins every safe bound a sharded cluster's
// gateways hand the coupling while RMP traffic crosses shards: at
// several RunFor horizons, EarliestOutputTo(d, act) of every node-uplink
// and trunk gateway toward every other domain d, for act = Now(),
// Now()+1µs and MaxTime, with the gateway's cross-shard frame count.
// The bounds combine three facts from three layers (the HUB setup delay,
// which domain a forward enters, and the CAB's transmit preparation);
// a change to any of them moves the table. Two scenarios: pdes's
// crosscut_2shard point (a LeafSpine(4,2,16) split by leaf pair, every
// other flow reversed, flows declared) and a 2-shard round-robin star
// with undeclared flows, whose gateways have unrestricted reach.
//
// Rewrite the table with go test -run TestShardedGatewayBounds -update .
// only for an intended change of the bounds.
func TestShardedGatewayBounds(t *testing.T) {
	var out strings.Builder
	crosscut := crossCutFlows()
	recordGatewayBounds(t, &out, "crosscut_2shard", &Config{
		Topology: fabric.LeafSpine(4, 2, 16), Shards: 2, Flows: crosscut,
		ShardOf: func(n int) int { return n / 32 }, CABDataBytes: 256 << 10,
	}, crosscut)
	recordGatewayBounds(t, &out, "star_2shard", &Config{Shards: 2},
		[][2]int{{0, 1}, {3, 2}, {4, 5}, {7, 6}})

	got := []byte(out.String())
	path := filepath.FromSlash(gatewayBoundsGolden)
	if *updateSnapshot {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (create it with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("gateway bounds differ from %s; first divergence:\ngot:  %s\nwant: %s",
			gatewayBoundsGolden, firstDiffLine(string(got), string(want)), firstDiffLine(string(want), string(got)))
	}
}

// crossCutFlows are pdes's crosscut_2shard flows: 16 flows from node 2f
// to node 2f+32, every odd one reversed, so each crosses the leaf pairs.
func crossCutFlows() [][2]int {
	flows := make([][2]int, 16)
	for f := range flows {
		flows[f] = [2]int{2 * f, 2*f + 32}
		if f%2 == 1 {
			flows[f] = [2]int{2*f + 32, 2 * f}
		}
	}
	return flows
}

// recordGatewayBounds builds cfg's cluster, materializes the flows'
// endpoints in index order, starts 8 RMP messages of 1 KB per flow, and
// appends the gateways' bounds to out at each horizon until every flow
// has drained.
func recordGatewayBounds(t *testing.T, out *strings.Builder, name string, cfg *Config, flows [][2]int) {
	t.Helper()
	const perFlow = 8
	cl := NewCluster(cfg)
	var ends []int
	for _, f := range flows {
		ends = append(ends, f[0], f[1])
	}
	slices.Sort(ends)
	for _, i := range slices.Compact(ends) {
		cl.Node(i)
	}
	done := make([]bool, len(flows))
	for fi, f := range flows {
		src, dst := cl.Node(f[0]), cl.Node(f[1])
		sink := dst.Mailboxes.Create(fmt.Sprintf("flow%d", fi))
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
			payload := make([]byte, 1024)
			for s := 0; s < perFlow; s++ {
				payload[0] = byte(s)
				if st := src.Transports.RMP.SendBlocking(ctx, addr, 0, payload); st != 1 {
					panic(fmt.Sprintf("flow %d send %d failed: status %d", fi, s, st))
				}
			}
		})
	}

	// The trunk gateways, in registration order, with their owners.
	type trunkGW struct {
		ti    int
		owner int
	}
	var trunks []trunkGW
	_, reach, _ := cl.planTrunks()
	for ti := range cl.Topology().Trunks {
		if len(cl.domains) == 1 || reach != nil && reach[ti] == nil {
			continue
		}
		owner := 0
		if cl.trunkOwner != nil {
			owner = int(cl.trunkOwner[ti])
		}
		trunks = append(trunks, trunkGW{ti, owner})
	}
	if len(trunks) != len(cl.gateways) {
		t.Fatalf("%s: %d trunk gateways, want %d", name, len(cl.gateways), len(trunks))
	}

	fmtT := func(v sim.Time) string {
		if v == sim.MaxTime {
			return "max"
		}
		return fmt.Sprint(int64(v))
	}
	record := func() {
		now := cl.Now()
		line := func(what string, own int, g *fiber.Gateway) {
			for d := range cl.domains {
				if d == own {
					continue
				}
				fmt.Fprintf(out, "%s t=%d %s shard %d -> %d: now=%s now+1us=%s max=%s cross=%d\n",
					name, int64(now), what, own, d,
					fmtT(g.EarliestOutputTo(d, now)),
					fmtT(g.EarliestOutputTo(d, now+sim.Time(sim.Microsecond))),
					fmtT(g.EarliestOutputTo(d, sim.MaxTime)),
					g.CrossShardFrames())
			}
		}
		for _, n := range cl.Nodes {
			line(fmt.Sprintf("node%d uplink", n.idx), cl.shard(n.idx), &n.gw)
		}
		for i, tg := range trunks {
			line(fmt.Sprintf("trunk%d", tg.ti), tg.owner, &cl.gateways[i])
		}
	}
	// Traffic starts about 0.5 ms in; the short, uneven steps after that
	// stop the run with frames in flight and preparations open.
	horizons := []sim.Duration{500 * sim.Microsecond}
	for _, us := range []sim.Duration{7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47} {
		horizons = append(horizons, us*sim.Microsecond)
	}
	for step := 0; slices.Contains(done, false); step++ {
		h := sim.Millisecond
		if step < len(horizons) {
			h = horizons[step]
		}
		if err := cl.RunFor(h); err != nil {
			t.Fatal(err)
		}
		if cl.Now() > sim.Time(sim.Second) {
			t.Fatalf("%s: flows stalled at %v", name, cl.Now())
		}
		record()
	}
}
