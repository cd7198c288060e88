// Network-device example: the paper's §5.1 usage level. The CAB is
// treated as a conventional network interface: the host-resident stack
// hands 1500-byte packets to the driver, which copies each across the VME
// bus into the shared buffer pool and lets a server thread on the CAB
// transmit them over Nectar.
//
// The example streams data in this mode and contrasts the result with the
// protocol-engine level (RMP offloaded to the CAB), showing first-hand
// why the paper moved the protocols onto the communication processor.
//
// Run with: go run ./examples/netdevice
package main

import (
	"fmt"
	"log"

	"nectar"
	"nectar/internal/netdev"
	"nectar/internal/proto/wire"
	"nectar/internal/rt/exec"
	"nectar/internal/rt/threads"
	"nectar/internal/sim"
)

const streamBytes = 128 << 10

func main() {
	// --- Level 1: CAB as a plain network device (§5.1) ---
	cl := nectar.NewCluster(nil)
	a := cl.AddNode()
	b := cl.AddNode()
	drvA := netdev.New(a.Datalink, a.Mailboxes)
	drvB := netdev.New(b.Datalink, b.Mailboxes)
	stackA := netdev.NewHostStack(drvA)
	stackB := netdev.NewHostStack(drvB)

	var netdevElapsed sim.Duration
	done := false
	b.Host.Run("recv", func(t *threads.Thread) {
		ctx := exec.OnHost(t, b.Host)
		start := t.Now()
		stackB.RecvStream(ctx, streamBytes)
		netdevElapsed = sim.Duration(t.Now() - start)
		done = true
	})
	a.Host.Run("send", func(t *threads.Thread) {
		ctx := exec.OnHost(t, a.Host)
		stackA.SendStream(ctx, b.ID, streamBytes)
	})
	for !done {
		if err := cl.RunFor(10 * sim.Millisecond); err != nil {
			log.Fatal(err)
		}
	}
	tx, _ := drvA.Stats()
	_, rx := drvB.Stats()
	fmt.Printf("network-device level: %d bytes in %v (%.1f Mbit/s), %d packets out / %d in\n",
		streamBytes, netdevElapsed,
		float64(streamBytes)*8/netdevElapsed.Seconds()/1e6, tx, rx)

	// --- Level 2: protocol engine (RMP offloaded to the CAB) ---
	cl2 := nectar.NewCluster(nil)
	a2 := cl2.AddNode()
	b2 := cl2.AddNode()
	sink := b2.Mailboxes.Create("sink")
	sink.SetCapacity(64 << 10)

	var rmpElapsed sim.Duration
	done2 := false
	b2.Host.Run("recv", func(t *threads.Thread) {
		ctx := exec.OnHost(t, b2.Host)
		start := t.Now()
		buf := make([]byte, 8192)
		for got := 0; got < streamBytes; {
			m := sink.BeginGetPoll(ctx)
			m.Read(ctx, 0, buf[:m.Len()])
			got += m.Len()
			sink.EndGet(ctx, m)
		}
		rmpElapsed = sim.Duration(t.Now() - start)
		done2 = true
	})
	a2.Host.Run("send", func(t *threads.Thread) {
		ctx := exec.OnHost(t, a2.Host)
		buf := make([]byte, 8192)
		for sent := 0; sent < streamBytes; sent += len(buf) {
			a2.Transports.RMP.Send(ctx, wire.MailboxAddr{Node: b2.ID, Box: sink.ID()}, 0, buf, nil)
		}
	})
	for !done2 {
		if err := cl2.RunFor(10 * sim.Millisecond); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("protocol-engine level: %d bytes in %v (%.1f Mbit/s) over RMP\n",
		streamBytes, rmpElapsed,
		float64(streamBytes)*8/rmpElapsed.Seconds()/1e6)
	fmt.Println("\nthe ~4x gap is the paper's case for offloading protocols to the CAB:")
	fmt.Println("one mapped-memory message write vs a host stack pass + VME copy per 1500B packet")
}
