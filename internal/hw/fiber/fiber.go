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
// Links support fault injection (drop or corrupt the next N packets) so
// tests can exercise the retransmission paths of RMP and TCP with real
// CRC/checksum failures.
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
	// retires a gateway's gwPending entry), or its next hop on out no
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

	// Gateway role (sharded execution): when this link feeds a HUB input
	// port whose forwards may cross shard boundaries, it doubles as the
	// shard's sim.Gateway, bounding the earliest
	// possible cross-shard output. gwDelay is the HUB setup latency added
	// to every forward; gwCross resolves a packet's next route hop to the
	// destination domain it would leave the shard for (cross=false for
	// local forwards); gwPending holds the cross-capable deliveries
	// already in flight on this link, in monotonically non-decreasing
	// start order (links serialize); gwTxFloor, when set, lower-bounds
	// the start of any *future* transmission on this link given the
	// owning domain's activity floor (see SetTxFloor).
	gwDelay   sim.Duration
	gwCross   func(port byte) (dst int, cross bool)
	gwTxFloor func(actFloor sim.Time) sim.Time
	gwReach   func(dst int) bool
	gwPending []gwFrame

	// Fault injection.
	dropNext    int
	corruptNext int
	faultFn     func(seq uint64) (drop, corrupt bool)

	// Stats.
	sent      uint64
	dropped   uint64
	corrupted uint64
	bytes     uint64
	crossSent uint64 // cross-capable sends (next hop leaves the shard)

	obs *obs.Observer

	// Pads a Link to 192 bytes, a multiple of the 64-byte cache line, so
	// the elements of a Links slab start on line boundaries and two
	// shards' links never share a line.
	_ [8]byte
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
	if l.dropNext > 0 || drop {
		if l.dropNext > 0 {
			l.dropNext--
		}
		l.dropped++
		l.obs.CapturePacket(l.name, pkt.Frame, true, false)
		pkt.Release() // frame dead: the capture tap decodes synchronously
		return
	}
	corrupted := false
	if l.corruptNext > 0 || corrupt {
		if l.corruptNext > 0 {
			l.corruptNext--
		}
		l.corrupted++
		corrupted = true
		// Flip a bit mid-frame; the CRC trailer will expose it.
		if len(pkt.Frame) > 0 {
			pkt.Frame[len(pkt.Frame)/2] ^= 0x10
		}
	}
	l.sent++
	l.bytes += uint64(pkt.WireLen())
	l.obs.CapturePacket(l.name, pkt.Frame, false, corrupted)
	if l.obs.Tracing() {
		l.obs.InstantArg(0, obs.LayerFiber, "tx", l.name, 0, pkt.WireLen())
	}
	if l.gwCross != nil && len(pkt.Route) > 0 {
		if dstDom, cross := l.gwCross(pkt.Route[0]); cross {
			// Cross-capable: its arrival constrains the shard's earliest
			// output toward dstDom until the delivery fires (deliveries
			// fire in start order, so popping the front matches this
			// append).
			l.crossSent++
			l.gwPending = append(l.gwPending, gwFrame{start: start, dst: int32(dstDom)})
			pkt.gwPop = true
		}
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
		l.gwPending = sim.PopFront(l.gwPending)
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

// gwFrame is one cross-capable delivery in flight on a gateway link: when
// its transmission started and which domain its next route hop forwards
// into.
type gwFrame struct {
	start sim.Time
	dst   int32
}

// SetGateway marks the link as a shard-boundary gateway: forwards of
// packets arriving at its destination HUB port incur delay (the HUB setup
// latency), and cross resolves a packet's next route hop to the domain it
// would leave the shard for (cross=false when the forward stays local).
// The link then implements sim.Gateway.
func (l *Link) SetGateway(delay sim.Duration, cross func(port byte) (dst int, crossShard bool)) {
	l.gwDelay = delay
	l.gwCross = cross
}

// SetTxFloor installs a lower bound on the start time of any future
// transmission on this link, as a function of the owning domain's activity
// floor (the earliest instant any event can execute in the domain's
// current window). The sharded cluster wires it to the sending CAB's
// transmit-preparation state: a frame send always consumes datalink
// processing plus DMA setup CPU time between the event that triggers it
// and the fiber transmission, so an idle CAB cannot start a frame before
// actFloor plus that margin, and a CAB already preparing a frame cannot
// start one before the preparation completes. Pass nil to clear (the
// bound degrades to actFloor itself).
func (l *Link) SetTxFloor(fn func(actFloor sim.Time) sim.Time) { l.gwTxFloor = fn }

// SetReach installs the link's declared channel topology: reach(dst)
// reports whether any frame this link can ever carry may be forwarded
// into domain dst. Wired by clusters whose Config declares the complete
// traffic matrix (Config.Flows); destinations outside the declared reach
// then return an unbounded EarliestOutputTo, which is what lets a
// well-partitioned cluster run whole horizons per window. Pass nil to
// clear (every destination reachable — the conservative default).
func (l *Link) SetReach(fn func(dst int) bool) { l.gwReach = fn }

// EarliestOutputTo implements sim.Gateway: a lower bound on the timestamp
// of any future forward from this link into domain dst, given actFloor —
// a lower bound on the earliest instant the owning domain can execute any
// event. Two sources bound it: cross-capable deliveries to dst already in
// flight (gwPending; deliveries to *other* domains do not cap it), and
// hypothetical future sends, which cannot start before the link is free
// nor before the transmit floor (the CPU time every frame send provably
// consumes before reaching the fiber). Every forward then adds the HUB
// setup delay — the lookahead that makes conservative windows
// non-trivial even at zero queueing. Zero-allocation: called per
// (gateway, destination) pair in every window choose phase.
//
//nectar:hotpath
func (l *Link) EarliestOutputTo(dst int, actFloor sim.Time) sim.Time {
	if l.gwReach != nil && !l.gwReach(dst) {
		// Declared channel topology: no frame this link carries can ever
		// be forwarded into dst, so this gateway does not constrain it.
		return sim.MaxTime
	}
	e := sim.MaxTime
	if actFloor < sim.MaxTime {
		e = actFloor
		if l.gwTxFloor != nil {
			e = l.gwTxFloor(actFloor)
		}
		if l.freeAt > e {
			e = l.freeAt
		}
	}
	// In-flight deliveries serialize, so starts are non-decreasing and
	// the first entry destined to dst is the earliest.
	for i := range l.gwPending {
		if int(l.gwPending[i].dst) == dst {
			if l.gwPending[i].start < e {
				e = l.gwPending[i].start
			}
			break
		}
	}
	if e >= sim.MaxTime {
		return sim.MaxTime
	}
	return e + sim.Time(l.gwDelay)
}

// Busy reports whether the fiber is occupied at the current instant.
func (l *Link) Busy() bool { return l.freeAt > l.k.Now() }

// FreeAt returns when the fiber becomes free.
func (l *Link) FreeAt() sim.Time { return l.freeAt }

// DropNext discards the next n packets presented for transmission.
func (l *Link) DropNext(n int) { l.dropNext += n }

// CorruptNext flips a bit in each of the next n packets.
func (l *Link) CorruptNext(n int) { l.corruptNext += n }

// SetFaultFn installs a deterministic per-packet fault pattern: fn is
// called with the packet's ordinal and decides whether it is dropped or
// corrupted. Tests use it to subject reliable protocols to arbitrary
// loss patterns. Pass nil to clear.
func (l *Link) SetFaultFn(fn func(seq uint64) (drop, corrupt bool)) { l.faultFn = fn }

// Stats returns (packets sent, packets dropped, packets corrupted, bytes).
func (l *Link) Stats() (sent, dropped, corrupted, bytes uint64) {
	return l.sent, l.dropped, l.corrupted, l.bytes
}

// CrossShardFrames reports how many frames this gateway link carried whose
// next route hop left the shard. It is deliberately kept out of the obs
// registry: the metric only exists under sharded execution, and the merged
// snapshot must stay byte-identical to a sequential run's.
func (l *Link) CrossShardFrames() uint64 { return l.crossSent }

func (l *Link) String() string {
	return fmt.Sprintf("fiber(%s)", l.name)
}
