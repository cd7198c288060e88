// Package hub models the Nectar HUB (paper §2.1): a 16x16 crossbar switch
// with fiber I/O ports and a controller implementing commands that CABs use
// to set up packet-switching and circuit-switching connections.
//
// CABs use source routing: a packet carries the list of HUB output-port
// numbers it must traverse. Forwarding is cut-through — a HUB begins
// retransmitting 700 ns (HubSetup) after the first byte arrives, while the
// rest of the packet is still streaming in. Large Nectar systems connect
// several HUBs through their I/O ports; multi-hop routes consume one route
// byte per HUB.
//
// Circuit switching: OpenCircuit reserves an output port for an input
// port; packets flagged Circuit then cross without per-packet setup. The
// controller refuses to open a circuit on a port that is already reserved,
// and packet-switched traffic to a reserved port is an error (the paper's
// HUB command set provides low-level flow control; our model surfaces
// misuse as a simulation failure rather than silently queueing).
package hub

import (
	"fmt"
	"sync/atomic"

	"nectar/internal/hw/fiber"
	"nectar/internal/model"
	"nectar/internal/obs"
	"nectar/internal/sim"
)

// DefaultPorts is the port count of the prototype's crossbars (16x16).
const DefaultPorts = 16

// Hub is one crossbar switch.
type Hub struct {
	k       *sim.Kernel
	cost    *model.CostModel
	name    string
	ports   []hubPort // indexed by port number
	sharded bool      // input ports run on several shards; circuits refused
	stats   struct {
		// forwarded is atomic because, under sharded execution, input
		// ports on different shards forward concurrently. setupOps stays
		// plain: controller commands are refused while sharded.
		forwarded atomic.Uint64
		setupOps  uint64
	}
}

// hubPort is one port's entry in its HUB's port table: the output side's
// fiber, owning shard and circuit reservation, and the input side's
// endpoint, which InPort and InPortOn hand out.
type hubPort struct {
	out    *fiber.Link // nil = unconnected
	outDom *sim.Domain // owning shard of the output link; nil = local
	circ   int         // input port holding a circuit on this output, -1 = none
	in     inPort
}

// Slab is a set of HUBs built together, such as a fabric's crossbars:
// the HUBs are one allocation and all their port tables one more, and
// the slab registers its gauges as one obs.Source, HUB by HUB in slab
// order.
type Slab []Hub

// NewSlab creates len(ports) HUBs on kernel k: HUB i is named names[i]
// and has ports[i] ports.
func NewSlab(k *sim.Kernel, cost *model.CostModel, names []string, ports []int) Slab {
	if len(names) != len(ports) {
		sim.Panicf("hub: %d names for %d HUBs", len(names), len(ports))
	}
	total := 0
	for _, n := range ports {
		total += n
	}
	hs := make(Slab, len(ports))
	tab := make([]hubPort, total)
	for i := range tab {
		tab[i].circ = -1
	}
	for i, n := range ports {
		hs[i] = Hub{k: k, cost: cost, name: names[i], ports: tab[:n:n]}
		tab = tab[n:]
	}
	obs.Ensure(k).Metrics().Register(hs)
	return hs
}

// New creates a HUB with n ports: a slab of one.
func New(k *sim.Kernel, cost *model.CostModel, name string, n int) *Hub {
	return &NewSlab(k, cost, []string{name}, []int{n})[0]
}

// Gauges reports every HUB's gauges (obs.Source).
func (hs Slab) Gauges(emit func(layer obs.Layer, name, scope string, v uint64)) {
	for i := range hs {
		hs[i].Gauges(emit)
	}
}

// Gauges reports the HUB's forwards and controller commands (obs.Source).
func (h *Hub) Gauges(emit func(layer obs.Layer, name, scope string, v uint64)) {
	emit(obs.LayerFiber, "hub_forwarded", h.name, h.stats.forwarded.Load())
	emit(obs.LayerFiber, "hub_setup_ops", h.name, h.stats.setupOps)
}

// Name returns the HUB name.
func (h *Hub) Name() string { return h.name }

// ConnectOut attaches the fiber leaving output port p.
func (h *Hub) ConnectOut(p int, l *fiber.Link) {
	if h.ports[p].out != nil {
		sim.Panicf("hub %s: output port %d already connected", h.name, p)
	}
	h.ports[p].out = l
}

// InPort returns the endpoint for fibers terminating at this HUB. All
// input ports share forwarding logic; the port identity only matters for
// circuit bookkeeping.
func (h *Hub) InPort(p int) fiber.Endpoint {
	return h.inPort(p, h.k, nil)
}

// InPortOn returns the endpoint for input port p executing on domain
// dom's kernel: the port runs on the shard of the CAB or trunk whose fiber
// feeds it, so arrival events never cross shards — only forwards do.
func (h *Hub) InPortOn(p int, dom *sim.Domain) fiber.Endpoint {
	return h.inPort(p, dom.Kernel(), dom)
}

// inPort sets up input port p's endpoint in the port table and returns
// it, so connecting a port allocates nothing.
func (h *Hub) inPort(p int, k *sim.Kernel, dom *sim.Domain) *inPort {
	ip := &h.ports[p].in
	*ip = inPort{hub: h, port: p, k: k, dom: dom}
	return ip
}

// SetOutDomain records which shard owns the link leaving output port p.
// Forwards from an input port on a different shard are routed through the
// coupling as timestamped inter-domain messages instead of local events.
func (h *Hub) SetOutDomain(p int, d *sim.Domain) { h.ports[p].outDom = d }

// OutDomain returns the shard owning the link leaving output port p (nil
// when the port is local, unconnected, or out of range). Gateway cross
// closures use it to resolve a route byte to the domain a forward enters —
// out-of-range bytes resolve to nil here and fail with a proper diagnostic
// when the forward executes.
func (h *Hub) OutDomain(p int) *sim.Domain {
	if p < 0 || p >= len(h.ports) {
		return nil
	}
	return h.ports[p].outDom
}

// OutLink returns the link leaving output port p (nil if unconnected or
// out of range).
//
//nectar:api the fabric tests check every trunk is its HUB's output link through it
func (h *Hub) OutLink(p int) *fiber.Link {
	if p < 0 || p >= len(h.ports) {
		return nil
	}
	return h.ports[p].out
}

// SetSharded marks the HUB as spanning shards: controller circuit commands
// are refused, because a circuit forwards with zero switch delay and would
// destroy the coupling's lookahead (and its port reservations would be
// cross-shard shared state).
func (h *Hub) SetSharded() { h.sharded = true }

type inPort struct {
	hub  *Hub
	port int
	k    *sim.Kernel // kernel the port's arrival events execute on
	dom  *sim.Domain // owning shard; nil on a stand-alone hub
}

// PacketArriving implements cut-through forwarding: consume the packet's
// next route byte and retransmit on that output port after the setup
// delay. The outgoing serialization overlaps the incoming one.
//
// The retransmission is deferred to the instant the first byte leaves the
// crossbar (arrival + setup delay) rather than performed synchronously at
// arrival. Under sharded execution a forward to an output link owned by
// another shard becomes a timestamped inter-domain message at exactly that
// instant — the setup delay is the coupling's lookahead — and deferring
// uniformly in both modes keeps per-link processing order, capture
// timestamps, and trace instants identical between sequential and sharded
// runs.
//
//nectar:takes-ownership pkt forwarded on an output link or consumed by misroute
func (ip *inPort) PacketArriving(pkt *fiber.Packet, end sim.Time) {
	h := ip.hub
	if len(pkt.Route) == 0 {
		ip.misroute(pkt, "packet arrived with exhausted route")
		return
	}
	outPort := int(pkt.Route[0])
	pkt.Route = pkt.Route[1:]
	if outPort >= len(h.ports) || h.ports[outPort].out == nil {
		ip.misroute(pkt, fmt.Sprintf("route names unconnected output port %d", outPort))
		return
	}
	op := &h.ports[outPort]
	if op.circ >= 0 && !pkt.Circuit {
		ip.misroute(pkt, fmt.Sprintf("packet-switched frame to output port %d which is circuit-reserved by input %d", outPort, op.circ))
		return
	}
	if pkt.Circuit && op.circ != ip.port {
		ip.misroute(pkt, fmt.Sprintf("circuit frame to output port %d but no circuit from input %d", outPort, ip.port))
		return
	}
	delay := h.cost.HubSetup
	if pkt.Circuit {
		// The crossbar is already configured: only propagation remains.
		delay = 0
	}
	h.stats.forwarded.Add(1)
	t := ip.k.Now() + sim.Time(delay)
	if dst := op.outDom; dst != nil && ip.dom != nil && dst != ip.dom {
		// Cross-shard forward: the destination shard owns the output
		// link. The packet leaves its origin shard for good, so detach
		// it from its (single-threaded) pool first.
		pkt.Disown()
		ip.dom.SendSized(dst, t, pkt.WireLen(), pkt.Hop(op.out, t))
		return
	}
	ip.k.At(t, pkt.Hop(op.out, t))
}

// misroute reports a forwarding failure through the owning kernel with
// the one diagnostic shape every HUB misroute shares: hub name, cause,
// input port, the frame's datalink src/dst IDs, and the unconsumed route
// bytes. Sharded and sequential runs take identical forwarding decisions
// at identical virtual instants, so the failure — like every other
// deterministic diagnostic — reproduces byte-identically under replay.
//
//nectar:takes-ownership pkt the frame dies with the diagnostic
func (ip *inPort) misroute(pkt *fiber.Packet, cause string) {
	ip.k.Fatalf("hub %s: %s (input port %d, %s, remaining route [% x])",
		ip.hub.name, cause, ip.port, frameIDs(pkt.Frame), pkt.Route)
	pkt.Release() // unroutable: the frame is dead once the diagnostic is rendered
}

// frameIDs renders a frame's datalink source/destination node IDs for
// forwarding diagnostics — on a multi-hop fabric a port number alone does
// not identify the flow. The src/dst words sit at fixed offsets in the
// datalink header (wire.DatalinkHeader, bytes 4:6 and 6:8, big-endian);
// decoding them inline avoids making the crossbar depend on the protocol
// package. Frames shorter than the header (raw test packets) report "?".
func frameIDs(frame []byte) string {
	if len(frame) < 8 {
		return "src=? dst=?"
	}
	src := uint16(frame[4])<<8 | uint16(frame[5])
	dst := uint16(frame[6])<<8 | uint16(frame[7])
	return fmt.Sprintf("src=node%d dst=node%d", src, dst)
}

// OpenCircuit reserves output port out for traffic from input port in
// (controller command). It charges the setup latency once; packets sent
// with Circuit=true then cross with no per-packet setup.
func (h *Hub) OpenCircuit(in, out int) error {
	if h.sharded {
		return fmt.Errorf("hub %s: circuits are not available under sharded execution (zero-lookahead forwarding)", h.name)
	}
	if c := h.ports[out].circ; c >= 0 {
		return fmt.Errorf("hub %s: port %d already reserved by input %d", h.name, out, c)
	}
	h.ports[out].circ = in
	h.stats.setupOps++
	return nil
}

// Forwarded returns the number of packets forwarded.
func (h *Hub) Forwarded() uint64 { return h.stats.forwarded.Load() }
