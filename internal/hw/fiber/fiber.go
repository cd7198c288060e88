// Package fiber models the Nectar fiber-optic links (paper §2.1): 100
// Mbit/s unidirectional point-to-point fibers connecting CABs to HUB I/O
// ports and HUBs to each other.
//
// Transmission is modeled at packet granularity with cut-through timing:
// the receiver learns when the first byte arrives and when the last byte
// will arrive, so downstream hardware (HUB forwarding, CAB start-of-packet
// interrupts, DMA overlap) can act while the packet is still streaming in —
// which is essential to reproducing the paper's latency breakdown (the
// datalink layer's start-of-data upcall runs "while the remainder of the
// packet is being received", §4.1).
//
// A link takes one fault hook, SetFaultFn, which drops or corrupts each
// packet by its ordinal; DropThenCorrupt builds the common "drop the next
// d, then corrupt the next c" pattern. Tests use it to exercise the
// retransmission paths of RMP and TCP with real CRC/checksum failures.
//
// Under sharded execution a link that feeds a HUB input port whose
// forwards may leave the shard also has a Gateway, which bounds the
// shard's earliest cross-shard output for the coupling scheduler.
package fiber

import (
	"fmt"

	"nectar/internal/model"
	"nectar/internal/obs"
	"nectar/internal/sim"
)

// Packet is a frame in flight, together with its remaining source route.
// Frame holds the datalink header, payload, and CRC trailer as real bytes;
// the route prefix is represented structurally and costs one byte per
// remaining hop on the wire.
//
// Route's backing array is treated as read-only while the packet is in
// flight: HUBs consume hops by re-slicing (Route = Route[1:]), never by
// writing, so senders may share their route-table entry without copying.
type Packet struct {
	Route   []byte // remaining HUB output-port numbers; empty = deliverable
	Frame   []byte // datalink header + payload + CRC trailer
	Circuit bool   // riding a pre-established circuit (no per-hop setup)

	pool *Pool // owning pool for Release; nil = GC-managed

	// The packet's one pending step. A packet in flight has exactly one
	// event outstanding: its arrival at the far end of via (first byte at
	// the event's instant, last byte at end; gwPop when the arrival
	// retires its link's oldest gateway entry), or its next hop on out no
	// earlier than at (Hop). The step's state rides here and the event
	// is one of the two callbacks GetPacket built, so scheduling a step
	// allocates nothing.
	via   *Link
	end   sim.Time
	gwPop bool
	out   *Link
	at    sim.Time

	arriveFn, hopFn func()
}

// Disown detaches the packet from its owning pool: Release becomes a no-op
// and the frame is left to the garbage collector. The sharded cluster calls
// it when a packet crosses a shard boundary — pools are single-threaded by
// construction, so a frame must never be returned to its origin shard's
// pool from another shard's goroutine.
func (p *Packet) Disown() { p.pool = nil }

// WireLen is the packet's current on-the-wire length: a route-length byte,
// the remaining route bytes, and the frame.
func (p *Packet) WireLen() int { return 1 + len(p.Route) + len(p.Frame) }

// Endpoint consumes packets from a link: a HUB input port or a CAB's
// receive interface.
type Endpoint interface {
	// PacketArriving is called at the virtual instant the packet's first
	// byte arrives. end is when its last byte will have arrived, assuming
	// the upstream keeps streaming at line rate.
	PacketArriving(pkt *Packet, end sim.Time)
}

// Link is one unidirectional fiber. Packets serialize at the line rate;
// if the fiber is busy, new packets queue behind it (modeling the sender's
// output FIFO plus low-level flow control).
type Link struct {
	k    *sim.Kernel
	cost *model.CostModel
	name string
	dst  Endpoint

	freeAt sim.Time

	gw      *Gateway // shard-boundary role; nil on ordinary links
	faultFn func(seq uint64) (drop, corrupt bool)

	// Stats.
	sent      uint64
	dropped   uint64
	corrupted uint64
	bytes     uint64

	obs *obs.Observer

	// Pads a Link to 128 bytes, a multiple of the 64-byte cache line, so
	// the elements of a Links slab start on line boundaries and two
	// shards' links never share a line.
	_ [16]byte
}

// NewLink creates a fiber link delivering to dst and registers it as its
// own obs.Source.
func NewLink(k *sim.Kernel, cost *model.CostModel, name string, dst Endpoint) *Link {
	l := new(Link)
	l.Init(k, cost, name, dst)
	l.obs.Metrics().Register(l)
	return l
}

// Init sets up l, which must be zero, as a fiber link on k delivering to
// dst. It is the one way to set up a link. It does not register the
// link's gauges: NewLink registers the link itself, and a Links slab
// registers once for all of its elements.
func (l *Link) Init(k *sim.Kernel, cost *model.CostModel, name string, dst Endpoint) {
	if dst == nil {
		panic("fiber: link with nil destination")
	}
	l.k, l.cost, l.name, l.dst = k, cost, name, dst
	l.obs = obs.Ensure(k)
}

// Gauges reports the link's traffic and fault counts (obs.Source).
func (l *Link) Gauges(emit func(layer obs.Layer, name, scope string, v uint64)) {
	emit(obs.LayerFiber, "frames", l.name, l.sent)
	emit(obs.LayerFiber, "bytes", l.name, l.bytes)
	emit(obs.LayerFiber, "dropped", l.name, l.dropped)
	emit(obs.LayerFiber, "corrupted", l.name, l.corrupted)
}

// Links is a slab of links allocated together, such as a fabric's
// trunks. Each element is set up with Init. The slab is one obs.Source:
// registering it once reports every element's gauges, in slab order,
// exactly as registering each link would. A snapshot sums gauges across
// registries, so elements set up on other kernels may register with any
// one of them.
type Links []Link

// Gauges reports every link's gauges (obs.Source).
func (ls Links) Gauges(emit func(layer obs.Layer, name, scope string, v uint64)) {
	for i := range ls {
		ls[i].Gauges(emit)
	}
}

// Name returns the link name.
func (l *Link) Name() string { return l.name }

// Send begins transmitting pkt at the current instant, or as soon as the
// fiber is free. Callable from kernel or proc context.
//
//nectar:takes-ownership pkt forwarded to SendAt, which assumes the frame
func (l *Link) Send(pkt *Packet) { l.SendAt(pkt, l.k.Now()) }

// SendAt begins transmitting pkt no earlier than t (used by HUB cut-through
// forwarding, where the first byte only becomes available after the setup
// delay).
//
//nectar:takes-ownership pkt released on the drop path, otherwise handed to the receiving endpoint
func (l *Link) SendAt(pkt *Packet, t sim.Time) {
	if t < l.k.Now() {
		t = l.k.Now()
	}
	start := t
	if l.freeAt > start {
		start = l.freeAt
	}
	dur := l.cost.FiberTime(pkt.WireLen())
	end := start + sim.Time(dur)
	l.freeAt = end

	drop, corrupt := false, false
	if l.faultFn != nil {
		drop, corrupt = l.faultFn(l.sent + l.dropped)
	}
	if drop {
		l.dropped++
		l.obs.CapturePacket(l.name, pkt.Frame, true, false)
		pkt.Release() // frame dead: the capture tap decodes synchronously
		return
	}
	if corrupt {
		l.corrupted++
		// Flip a bit mid-frame; the CRC trailer will expose it.
		if len(pkt.Frame) > 0 {
			pkt.Frame[len(pkt.Frame)/2] ^= 0x10
		}
	}
	l.sent++
	l.bytes += uint64(pkt.WireLen())
	l.obs.CapturePacket(l.name, pkt.Frame, false, corrupt)
	if l.obs.Tracing() {
		l.obs.InstantArg(0, obs.LayerFiber, "tx", l.name, 0, pkt.WireLen())
	}
	if l.gw != nil {
		pkt.gwPop = l.gw.send(pkt, start)
	}
	pkt.via = l
	pkt.end = end
	l.k.At(start, pkt.arriveFn)
}

// arrive is the packet's arrival event: it hands the packet to the far
// end of the link it was sent on.
func (pkt *Packet) arrive() {
	l := pkt.via
	if pkt.gwPop {
		pkt.gwPop = false
		l.gw.pending = sim.PopFront(l.gw.pending)
	}
	l.dst.PacketArriving(pkt, pkt.end)
}

// Hop arms the packet's pending step as a transmission on out starting no
// earlier than at, and returns the packet's prebuilt callback that
// performs it. A HUB schedules the callback at the instant its first byte
// leaves the crossbar.
//
//nectar:hotpath
func (pkt *Packet) Hop(out *Link, at sim.Time) func() {
	pkt.out = out
	pkt.at = at
	return pkt.hopFn
}

// hop is the event Hop arms.
//
//nectar:free-hop the HUB charged its setup latency (cost.HubSetup) into at before scheduling the hop
func (pkt *Packet) hop() { pkt.out.SendAt(pkt, pkt.at) }

// DropThenCorrupt returns a fault pattern for SetFaultFn that drops the
// next drop packets presented for transmission, then corrupts the next
// corrupt ones, and passes every packet after that.
func DropThenCorrupt(drop, corrupt int) func(seq uint64) (drop, corrupt bool) {
	return func(uint64) (bool, bool) {
		switch {
		case drop > 0:
			drop--
			return true, false
		case corrupt > 0:
			corrupt--
			return false, true
		}
		return false, false
	}
}

// SetFaultFn installs the link's one fault hook, replacing any earlier
// one: fn is called with each packet's ordinal on the link and decides
// whether the packet is dropped or corrupted (a bit flipped mid-frame,
// which the CRC trailer exposes). Tests use it to subject reliable
// protocols to arbitrary loss patterns. Pass nil to clear.
func (l *Link) SetFaultFn(fn func(seq uint64) (drop, corrupt bool)) { l.faultFn = fn }

func (l *Link) String() string {
	return fmt.Sprintf("fiber(%s)", l.name)
}
