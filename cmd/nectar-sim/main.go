// Command nectar-sim builds a Nectar installation from flags, drives an
// all-pairs traffic pattern over a chosen transport, and prints per-node
// and fabric statistics — a quick way to watch the simulated hardware and
// runtime at work on arbitrary topologies.
//
// Examples:
//
//	nectar-sim -nodes 4 -msgs 50 -size 1024 -proto rmp
//	nectar-sim -nodes 6 -hubs 2 -proto datagram -size 256   # leaf-spine: 2 leaf HUBs, 1 spine
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"nectar"
	"nectar/internal/fabric"
	"nectar/internal/obs"
	"nectar/internal/proto/wire"
	"nectar/internal/rt/exec"
	"nectar/internal/rt/mailbox"
	"nectar/internal/rt/threads"
	"nectar/internal/sim"
)

func main() {
	nodes := flag.Int("nodes", 4, "number of host/CAB pairs")
	hubs := flag.Int("hubs", 1, "number of leaf HUBs the nodes spread over; more than 1 adds a spine HUB joining them")
	msgs := flag.Int("msgs", 20, "messages per source-destination pair")
	size := flag.Int("size", 1024, "message size in bytes")
	proto := flag.String("proto", "rmp", "transport: datagram | rmp")
	rxThread := flag.Bool("rxthread", false, "protocol input in a thread instead of at interrupt time")
	flag.Parse()

	cfg := &nectar.Config{RxThreadMode: *rxThread}
	if *hubs > 1 {
		cfg.Topology = fabric.LeafSpine(*hubs, 1, (*nodes+*hubs-1) / *hubs)
	}
	cl := nectar.NewCluster(cfg)
	var ns []*nectar.Node
	var sinks []*mailbox.Mailbox
	for i := 0; i < *nodes; i++ {
		n := cl.Node(i)
		ns = append(ns, n)
		sink := n.Mailboxes.Create(fmt.Sprintf("sim.sink%d", i))
		sink.SetCapacity(1 << 20)
		sinks = append(sinks, sink)
	}

	expect := (*nodes - 1) * *msgs // messages each node will receive
	remaining := *nodes
	// Receivers: CAB threads draining each sink.
	for i, n := range ns {
		i, n := i, n
		n.CAB.Sched.Fork("drain", threads.SystemPriority, func(t *threads.Thread) {
			ctx := exec.OnCAB(t)
			for k := 0; k < expect; k++ {
				m := sinks[i].BeginGet(ctx)
				sinks[i].EndGet(ctx, m)
			}
			remaining--
		})
	}
	// Senders: every node blasts every other node.
	for i, n := range ns {
		i, n := i, n
		n.CAB.Sched.Fork("blast", threads.SystemPriority, func(t *threads.Thread) {
			ctx := exec.OnCAB(t)
			buf := make([]byte, *size)
			for j := range ns {
				if j == i {
					continue
				}
				addr := wire.MailboxAddr{Node: ns[j].ID, Box: sinks[j].ID()}
				for k := 0; k < *msgs; k++ {
					switch *proto {
					case "datagram":
						_ = n.Transports.Datagram.SendDirect(ctx, addr, 0, buf)
						t.Sleep(100 * sim.Microsecond) // pace unreliable traffic
					case "rmp":
						if st := n.Transports.RMP.SendBlocking(ctx, addr, 0, buf); st != 1 {
							log.Fatalf("rmp send failed: status %d", st)
						}
					default:
						fmt.Fprintf(os.Stderr, "unknown -proto %q\n", *proto)
						os.Exit(2)
					}
				}
			}
		})
	}

	start := cl.Now()
	for remaining > 0 {
		if err := cl.RunFor(10 * sim.Millisecond); err != nil {
			log.Fatal(err)
		}
		if sim.Duration(cl.Now()-start) > 300*sim.Second {
			log.Fatal("traffic did not complete (check -proto/-msgs)")
		}
	}
	elapsed := sim.Duration(cl.Now() - start)

	totalBytes := *nodes * (*nodes - 1) * *msgs * *size
	fmt.Printf("%d nodes on %d HUB(s), %s, %d x %dB per pair\n", *nodes, len(cl.Hubs), *proto, *msgs, *size)
	fmt.Printf("virtual time: %v   aggregate goodput: %.1f Mbit/s\n",
		elapsed, float64(totalBytes)*8/elapsed.Seconds()/1e6)
	fmt.Printf("\n%-6s %10s %10s %10s %12s %12s\n", "node", "tx", "rx", "crcErr", "switches", "interrupts")
	snap := cl.MetricsSnapshot()
	for i, n := range ns {
		scope := n.CAB.Scope()
		fmt.Printf("cab%-3d %10d %10d %10d %12d %12d\n", i+1, snap.Value(obs.LayerCAB, "tx_frames", scope),
			snap.Value(obs.LayerCAB, "rx_frames", scope), snap.Value(obs.LayerCAB, "crc_errors", scope),
			n.CAB.Sched.Switches(), n.CAB.Sched.Interrupts())
	}
	for i, h := range cl.Hubs {
		fmt.Printf("hub%-3d forwarded %d frames\n", i, h.Forwarded())
	}
}
