package bench

import (
	"fmt"

	"nectar"
	"nectar/internal/hw/ether"
	"nectar/internal/model"
	"nectar/internal/netdev"
	"nectar/internal/obs"
	"nectar/internal/proto/wire"
	"nectar/internal/rt/exec"
	"nectar/internal/rt/threads"
	"nectar/internal/sim"
)

// MicroResult holds the small measurements quoted in the paper's text.
type MicroResult struct {
	HubFirstByteNS  float64 // §2.1 anchor: 700 ns
	ContextSwitchUS float64 // §3.1 anchor: ~20 µs
}

// Micro measures the HUB setup latency and the thread context switch.
func Micro(cost *model.CostModel) (*MicroResult, error) {
	res := &MicroResult{}

	// HUB: first byte of a 1-byte frame through one HUB. Send from CAB A
	// and observe the arrival timestamp at CAB B minus the wire-exit time.
	{
		cl, a, b := newCluster(cost, false)
		trace := recordTrace(cl)
		box := b.Mailboxes.Create("sink")
		done := false
		b.CAB.Sched.Fork("rx", threads.SystemPriority, func(t *threads.Thread) {
			ctx := exec.OnCAB(t)
			m := box.BeginGet(ctx)
			box.EndGet(ctx, m)
			done = true
		})
		a.CAB.Sched.Fork("tx", threads.SystemPriority, func(t *threads.Thread) {
			ctx := exec.OnCAB(t)
			_ = a.Transports.Datagram.SendDirect(ctx, wire.MailboxAddr{Node: b.ID, Box: box.ID()}, 0, []byte{0})
		})
		if err := drive(cl, &done); err != nil {
			return nil, err
		}
		events := trace()
		tx, okTx := firstEvent(events, 0, int(a.ID), obs.LayerDatalink, "tx", "")
		rx, okRx := firstEvent(events, 0, int(b.ID), obs.LayerCAB, "rx.arrive", "")
		if !okTx || !okRx {
			return nil, fmt.Errorf("micro: hub trace is missing datalink.tx or cab.rx.arrive")
		}
		res.HubFirstByteNS = float64((rx - tx).Nanos())
	}

	// Context switch: ping-pong between two CAB threads on one CAB.
	{
		cl := nectar.NewCluster(&nectar.Config{Cost: cost})
		n := cl.AddNode()
		c := threads.NewCond("pp")
		turn := 0
		const rounds = 200
		done := false
		var took sim.Duration
		for id := 0; id < 2; id++ {
			id := id
			n.CAB.Sched.Fork(fmt.Sprintf("p%d", id), threads.SystemPriority, func(t *threads.Thread) {
				start := t.Now()
				for i := 0; i < rounds; i++ {
					for turn != id {
						c.Wait(t)
					}
					turn = 1 - id
					c.Signal()
				}
				if id == 1 {
					took = sim.Duration(t.Now() - start)
					done = true
				}
			})
		}
		if err := drive(cl, &done); err != nil {
			return nil, err
		}
		res.ContextSwitchUS = took.Micros() / float64(2*rounds)
	}
	return res, nil
}

// Format renders the micro measurements with anchors.
func (r *MicroResult) Format() string {
	return fmt.Sprintf(
		"Micro measurements\n  HUB setup + first byte: %6.0f ns   (paper: 700 ns)\n  thread context switch: %7.1f us   (paper: ~20 us)\n",
		r.HubFirstByteNS, r.ContextSwitchUS)
}

// NetdevResult is the §6.3 / §5.1 comparison: host-to-host throughput
// with the CAB as a plain network device versus the on-board Ethernet.
type NetdevResult struct {
	NectarNetdevMbps float64 // paper anchor: 6.4 Mbit/s
	EthernetMbps     float64 // paper anchor: 7.2 Mbit/s
}

// netdevStreamBytes is the stream length for the E5 comparison.
const netdevStreamBytes = 256 << 10

// Netdev runs the network-device-level stream and the Ethernet baseline.
func Netdev(cost *model.CostModel) (*NetdevResult, error) {
	res := &NetdevResult{}

	// Nectar as a conventional LAN device (§5.1): host-resident stack,
	// per-packet VME copies through the driver's buffer pools.
	{
		cl, a, b := newCluster(cost, false)
		drvA := netdev.New(a.Datalink, a.Mailboxes)
		drvB := netdev.New(b.Datalink, b.Mailboxes)
		stackA := netdev.NewHostStack(drvA)
		stackB := netdev.NewHostStack(drvB)
		done := false
		var start, end sim.Time
		b.Host.Run("recv", func(t *threads.Thread) {
			ctx := exec.OnHost(t, b.Host)
			stackB.RecvStream(ctx, netdevStreamBytes)
			end = t.Now()
			done = true
		})
		a.Host.Run("send", func(t *threads.Thread) {
			ctx := exec.OnHost(t, a.Host)
			start = t.Now()
			stackA.SendStream(ctx, b.ID, netdevStreamBytes)
		})
		if err := drive(cl, &done); err != nil {
			return nil, err
		}
		res.NectarNetdevMbps = mbps(netdevStreamBytes, sim.Duration(end-start))
	}

	// Ethernet baseline: same hosts, on-board interface, no VME crossing.
	{
		cl := nectar.NewCluster(&nectar.Config{Cost: cost})
		a := cl.AddNode()
		b := cl.AddNode()
		seg := ether.NewSegment(cl.K, cl.Cost)
		ifA := seg.Attach(a.Host)
		ifB := seg.Attach(b.Host)
		received := 0
		done := false
		var start, end sim.Time
		ifB.OnReceive(func(t *threads.Thread, n int) {
			t.Compute(cl.Cost.HostStackPerPacket) // host stack on the receiver
			received += n
			if received >= netdevStreamBytes {
				end = t.Now()
				done = true
			}
		})
		a.Host.Run("send", func(t *threads.Thread) {
			ctx := exec.OnHost(t, a.Host)
			start = t.Now()
			for sent := 0; sent < netdevStreamBytes; {
				n := netdevStreamBytes - sent
				if n > ether.MTU {
					n = ether.MTU
				}
				t.Compute(cl.Cost.HostStackPerPacket)
				ifA.Send(ctx, ifB.Addr(), n)
				sent += n
			}
		})
		if err := drive(cl, &done); err != nil {
			return nil, err
		}
		res.EthernetMbps = mbps(netdevStreamBytes, sim.Duration(end-start))
	}
	return res, nil
}

// Format renders the comparison with anchors.
func (r *NetdevResult) Format() string {
	return fmt.Sprintf(
		"Network-device level vs Ethernet (host-resident stack)\n  Nectar as network device: %5.1f Mbit/s  (paper: 6.4)\n  Ethernet (on-board):      %5.1f Mbit/s  (paper: 7.2)\n",
		r.NectarNetdevMbps, r.EthernetMbps)
}
