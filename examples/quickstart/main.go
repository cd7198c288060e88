// Quickstart: bring up a two-node Nectar cluster, exchange messages over
// the three Nectar transports through the Nectarine application interface,
// and print what the hardware did — a condensed tour of the paper's
// system.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"nectar"
	"nectar/internal/nectarine"
	"nectar/internal/obs"
	"nectar/internal/sim"
)

func main() {
	cl := nectar.NewCluster(nil) // the paper's 1990 cost model
	a := cl.AddNode()
	b := cl.AddNode()

	// A mailbox on node B with a network-wide address (paper §3.3).
	sink := b.Mailboxes.Create("quickstart.sink")

	// A receiving application task on host B: polls the mailbox the way
	// the paper's low-latency receive path does (§6.1).
	b.API.RunOnHost("receiver", func(ep *nectarine.Endpoint) {
		for i := 0; i < 3; i++ {
			msg := ep.GetPoll(sink)
			fmt.Printf("[%8v] host B received %q\n", ep.Thread().Now(), msg)
		}
	})

	// A sending application task on host A: one unreliable datagram, one
	// acknowledged RMP message, then an RPC to a CAB-resident service.
	service := b.Mailboxes.Create("quickstart.echo")
	b.API.RunOnCAB("echo-server", func(ep *nectarine.Endpoint) {
		for {
			ep.Serve(service, func(req []byte) []byte {
				return append([]byte("echoed: "), req...)
			})
		}
	})

	a.API.RunOnHost("sender", func(ep *nectarine.Endpoint) {
		t0 := ep.Thread().Now()
		ep.SendDatagram(sink.Addr(), []byte("unreliable datagram"))
		fmt.Printf("[%8v] host A sent datagram (fire-and-forget)\n", ep.Thread().Now())

		st := ep.SendReliable(sink.Addr(), []byte("reliable message (RMP)"))
		fmt.Printf("[%8v] host A RMP acknowledged, status=%d\n", ep.Thread().Now(), st)

		ep.SendDatagram(sink.Addr(), []byte("one more datagram"))

		replyBox := ep.NewMailbox("quickstart.reply")
		reply, err := ep.Call(service.Addr(), []byte("hello CAB"), replyBox)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("[%8v] host A RPC reply: %q\n", ep.Thread().Now(), reply)
		fmt.Printf("total virtual time for the session: %v\n",
			sim.Duration(ep.Thread().Now()-t0))
	})

	if err := cl.RunFor(50 * sim.Millisecond); err != nil {
		log.Fatal(err)
	}

	snap := cl.MetricsSnapshot()
	txA := snap.Value(obs.LayerCAB, "tx_frames", a.CAB.Scope())
	rxB := snap.Value(obs.LayerCAB, "rx_frames", b.CAB.Scope())
	fmt.Printf("\nhardware: CAB A transmitted %d frames, CAB B received %d frames\n", txA, rxB)
	fmt.Printf("CAB B heap in use: %d bytes (all message buffers returned)\n", b.CAB.Heap.Used())
}
