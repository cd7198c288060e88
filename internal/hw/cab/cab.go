// Package cab models the CAB (Communication Accelerator Board, paper §2.2):
// a general-purpose CPU (modeled by a threads.Sched), data memory with its
// buffer heap, FIFOs to the fiber pair, hardware CRC, a DMA controller,
// and a VME interface to the host. Program memory is not modeled: no
// simulated code reads it.
//
// The package is the hardware/software boundary: protocol software (the
// datalink layer and everything above it) drives the board through
// Transmit, StartRxDMA and the interrupt vectors, and the board calls back
// into registered handlers in interrupt context, exactly as the paper's
// runtime system is driven by start-of-packet and end-of-data events.
package cab

import (
	"fmt"

	"nectar/internal/hw/fiber"
	"nectar/internal/hw/mem"
	"nectar/internal/model"
	"nectar/internal/obs"
	"nectar/internal/pool"
	"nectar/internal/proto/wire"
	"nectar/internal/rt/threads"
	"nectar/internal/sim"
)

// RxDesc describes a frame being received. It is handed to the registered
// receive handler when the datalink header has arrived in the input FIFO;
// the payload may still be streaming in (End is when the last byte lands).
//
// A descriptor in flight has one pending step at a time: the header
// event, the start-of-packet interrupt, or the receive DMA's completion.
// The step's state rides in the descriptor (dmaDst, dmaDone) and its
// event is one of the callbacks getDesc built with the descriptor, so
// receiving a frame schedules no fresh closure.
type RxDesc struct {
	Frame []byte   // full frame: datalink header + payload + CRC trailer
	End   sim.Time // arrival time of the last byte
	cab   *CAB
	pkt   *fiber.Packet // in-flight packet owning Frame (nil in unit tests)

	dmaDst          []byte                  // StartRxDMA's destination buffer
	dmaDone         func(ok bool)           // StartRxDMA's completion upcall
	headerFn, dmaFn func()                  // the header and DMA-completion events
	intrFn          func(t *threads.Thread) // the start-of-packet interrupt handler
}

// Release recycles the frame buffer and descriptor once the frame is dead:
// the datalink layer calls it on pre-DMA drop paths, and StartRxDMA calls
// it after the payload has been copied out. It must be called at most once
// per descriptor.
//
//nectar:hotpath
func (d *RxDesc) Release() {
	if d.pkt != nil {
		d.pkt.Release()
		d.pkt = nil
	}
	d.Frame = nil
	d.dmaDst = nil
	d.dmaDone = nil
	if d.cab != nil {
		d.cab.descFree.Put(d)
	}
}

// CRCOK reports whether the hardware CRC over the frame verifies. The
// result is physically known only at End; callers check it from the
// end-of-data path.
func (d *RxDesc) CRCOK() bool {
	f := d.Frame
	if len(f) < wire.CRCLen {
		return false
	}
	body, trailer := f[:len(f)-wire.CRCLen], f[len(f)-wire.CRCLen:]
	want := uint32(trailer[0])<<24 | uint32(trailer[1])<<16 | uint32(trailer[2])<<8 | uint32(trailer[3])
	return wire.CRC32(body) == want
}

// Payload returns the frame body between the datalink header and the CRC
// trailer.
func (d *RxDesc) Payload() []byte {
	return d.Frame[wire.DatalinkHeaderLen : len(d.Frame)-wire.CRCLen]
}

// CAB is one communication processor board.
type CAB struct {
	node  wire.NodeID
	k     *sim.Kernel
	cost  *model.CostModel
	Sched *threads.Sched // the CAB CPU

	Data *mem.Region // 1 MB data memory (DMA-capable)
	Heap *mem.Heap   // buffer heap over data memory (mailbox storage)

	out       *fiber.Link // to the HUB
	routes    map[wire.NodeID][]byte
	routeMiss func(dst wire.NodeID) // Transmit found no route to dst; nil = just the error

	rxHandler   func(t *threads.Thread, d *RxDesc) // start-of-packet, interrupt context
	hostVector  func(t *threads.Thread)            // doorbell from host, interrupt context
	toHost      func()                             // raises the host's CAB interrupt
	rxInterrupt bool                               // deliver rx as interrupt (true) or via polling thread (ablation A1)

	txFrames, rxFrames uint64
	crcErrors          uint64

	// Fast-path recycling (see fiber.Pool): outbound frame/packet reuse
	// and receive-descriptor reuse.
	pool     *fiber.Pool
	descFree pool.FreeList[*RxDesc]

	obs *obs.Observer
}

// NewSized creates a CAB with dataBytes of packet memory (0 selects the
// default 1 MB, the prototype's geometry). Scale experiments shrink it so
// tens of thousands of materialized nodes fit in host memory; behavior is
// identical unless the workload actually exhausts the buffer heap.
func NewSized(k *sim.Kernel, cost *model.CostModel, node wire.NodeID, dataBytes int) *CAB {
	if dataBytes <= 0 {
		dataBytes = mem.DefaultDataSize
	}
	data := mem.NewRegion(fmt.Sprintf("cab%d.data", node), dataBytes)
	c := &CAB{
		node:   node,
		k:      k,
		cost:   cost,
		Sched:  threads.New(k, cost, fmt.Sprintf("cab%d", node)),
		Data:   data,
		Heap:   mem.NewHeap(data, 0, data.Size()),
		routes: make(map[wire.NodeID][]byte),
	}
	c.pool = &fiber.Pool{}
	c.rxInterrupt = true
	c.obs = obs.Ensure(k)
	c.obs.Metrics().Register(c)
	return c
}

// Gauges reports the board's frame and CRC-error counts (obs.Source).
func (c *CAB) Gauges(emit func(layer obs.Layer, name, scope string, v uint64)) {
	scope := c.Scope()
	emit(obs.LayerCAB, "tx_frames", scope, c.txFrames)
	emit(obs.LayerCAB, "rx_frames", scope, c.rxFrames)
	emit(obs.LayerCAB, "crc_errors", scope, c.crcErrors)
}

// Node returns the CAB's node ID.
func (c *CAB) Node() wire.NodeID { return c.node }

// Scope returns the board's metric scope, "cab<node>": the name of its
// CPU, shared by every layer that reports metrics for this board.
func (c *CAB) Scope() string { return c.Sched.Name() }

// Kernel returns the simulation kernel.
func (c *CAB) Kernel() *sim.Kernel { return c.k }

// Cost returns the cost model.
func (c *CAB) Cost() *model.CostModel { return c.cost }

// ConnectFiber attaches the outgoing fiber (to a HUB input port).
func (c *CAB) ConnectFiber(out *fiber.Link) { c.out = out }

// OutLink returns the outgoing fiber (tests use it for fault injection).
func (c *CAB) OutLink() *fiber.Link { return c.out }

// SetRoute installs the source route (HUB output-port bytes) to reach dst.
// The slice is retained by reference and must stay immutable: clusters
// point every CAB at one shared, deduplicated route table (HUBs consume
// hops by re-slicing, never writing — see fiber.Packet), so copying here
// would multiply the table per node.
func (c *CAB) SetRoute(dst wire.NodeID, route []byte) {
	c.routes[dst] = route
}

// OnRouteMiss installs fn, called by Transmit before it fails for lack of
// a route to dst. Clusters with a declared traffic matrix use it to panic
// on undeclared traffic: they install routes only between declared peers,
// so a route miss is where such a frame first shows. Pass nil to clear.
func (c *CAB) OnRouteMiss(fn func(dst wire.NodeID)) { c.routeMiss = fn }

// Route returns the source route to dst.
//
//nectar:api the route-table oracle of the cluster and fabric tests; routes publish no gauge
func (c *CAB) Route(dst wire.NodeID) ([]byte, bool) {
	r, ok := c.routes[dst]
	return r, ok
}

// OnReceive registers the datalink receive handler, invoked in interrupt
// context when a frame's header has arrived (start-of-packet interrupt).
func (c *CAB) OnReceive(fn func(t *threads.Thread, d *RxDesc)) { c.rxHandler = fn }

// OnHostDoorbell registers the handler for the host-to-CAB interrupt
// (paper §3.2: the host places a request in the CAB signal queue and
// interrupts the CAB).
func (c *CAB) OnHostDoorbell(fn func(t *threads.Thread)) { c.hostVector = fn }

// SetHostInterrupt wires the CAB-to-host interrupt line (installed by the
// host board during cluster construction).
func (c *CAB) SetHostInterrupt(fn func()) { c.toHost = fn }

// RingFromHost raises the CAB's doorbell interrupt. Called from a host
// process context after it has posted a request to the CAB signal queue.
func (c *CAB) RingFromHost() {
	if c.hostVector == nil {
		c.k.Fatalf("cab%d: doorbell with no handler registered", c.node)
		return
	}
	c.Sched.RaiseInterrupt("host-doorbell", c.hostVector)
}

// InterruptHost raises the host's CAB interrupt (paper Figure 4: the CAB
// places an entry in the host signal queue and interrupts the host).
func (c *CAB) InterruptHost() {
	if c.toHost == nil {
		c.k.Fatalf("cab%d: host interrupt with no line wired", c.node)
		return
	}
	c.toHost()
}

// SetRxInterruptMode selects whether arriving frames raise an interrupt
// (the paper's production configuration) or are handed to a polling
// high-priority thread via the rxQueue (the §3.1 ablation). The datalink
// layer consumes this flag.
func (c *CAB) SetRxInterruptMode(on bool) { c.rxInterrupt = on }

// RxInterruptMode reports the current delivery mode.
func (c *CAB) RxInterruptMode() bool { return c.rxInterrupt }

// Transmit builds a frame around the given datalink header template and
// payload spans, appends the hardware CRC, and starts the output DMA. The
// caller (datalink software) has already charged the CPU costs; the
// transfer itself proceeds in parallel with the CPU.
//
// The payload spans are gathered by the DMA engine, so a transport can
// transmit a header template from one buffer and user data from a mailbox
// buffer without any CPU copy (paper §4.1's gather-style IP_Output).
//
//nectar:free-hop callers charge the datalink CPU costs (DatalinkProcess et al.) before invoking; wire serialization is charged inside Link.Send
func (c *CAB) Transmit(dst wire.NodeID, hdr wire.DatalinkHeader, circuit bool, payload ...[]byte) error {
	if c.out == nil {
		return fmt.Errorf("cab%d: no fiber connected", c.node)
	}
	route, ok := c.routes[dst]
	if !ok {
		if c.routeMiss != nil {
			c.routeMiss(dst)
		}
		return fmt.Errorf("cab%d: no route to node %d", c.node, dst)
	}
	n := 0
	for _, p := range payload {
		n += len(p)
	}
	if n > wire.MaxPayload {
		return fmt.Errorf("cab%d: payload %d exceeds max %d", c.node, n, wire.MaxPayload)
	}
	hdr.Src = c.node
	hdr.Dst = dst
	hdr.Len = uint16(n)
	frame := c.pool.GetFrame(wire.DatalinkHeaderLen + n + wire.CRCLen)
	hdr.Marshal(frame)
	off := wire.DatalinkHeaderLen
	for _, p := range payload {
		off += copy(frame[off:], p)
	}
	crc := wire.CRC32(frame[:off])
	frame[off] = byte(crc >> 24)
	frame[off+1] = byte(crc >> 16)
	frame[off+2] = byte(crc >> 8)
	frame[off+3] = byte(crc)
	c.txFrames++
	if c.obs.Tracing() {
		c.obs.InstantSeq(int(c.node), obs.LayerCAB, "tx", 0, len(frame))
	}
	// The route slice is shared, not copied: HUBs consume hops by
	// re-slicing only (see fiber.Packet), so the route table entry's
	// backing array is never written in flight.
	pkt := c.pool.GetPacket()
	pkt.Route = route
	pkt.Frame = frame
	pkt.Circuit = circuit
	c.out.Send(pkt)
	return nil
}

// PacketArriving implements fiber.Endpoint: frames delivered to this CAB.
// The start-of-packet interrupt is raised once the datalink header has
// drained into the input FIFO (paper §3.1: it "must be handled within a
// few tens of microseconds").
func (c *CAB) PacketArriving(pkt *fiber.Packet, end sim.Time) {
	c.rxFrames++
	if c.obs.Tracing() {
		c.obs.InstantSeq(int(c.node), obs.LayerCAB, "rx.arrive", 0, len(pkt.Frame))
	}
	desc := c.getDesc()
	desc.Frame = pkt.Frame
	desc.End = end
	desc.pkt = pkt
	headerAt := c.k.Now() + sim.Time(c.cost.FiberTime(1+wire.DatalinkHeaderLen))
	if headerAt > end {
		headerAt = end
	}
	c.k.At(headerAt, desc.headerFn)
}

// header is the descriptor's header event: the datalink header has
// drained into the input FIFO, so the frame is handed to the receive
// handler.
func (d *RxDesc) header() {
	c := d.cab
	if c.rxHandler == nil {
		c.k.Fatalf("cab%d: frame arrived with no receive handler", c.node)
		return
	}
	if c.rxInterrupt {
		c.Sched.RaiseInterrupt("start-of-packet", d.intrFn)
	} else {
		// Polling-thread mode: the datalink package registered a
		// handler that enqueues to its rx thread without an interrupt.
		c.rxHandler(nil, d)
	}
}

// interrupt is the descriptor's start-of-packet interrupt handler.
func (d *RxDesc) interrupt(t *threads.Thread) { d.cab.rxHandler(t, d) }

// StartRxDMA arranges for the frame's payload to be placed in dst (a CAB
// data-memory buffer) and calls done when the transfer is complete — i.e.
// when the last byte has both arrived and drained from the FIFO. done runs
// in kernel context at that instant; ok reports the hardware CRC check,
// whose result accompanies the end-of-data event.
//
// The DMA controller handles low-level flow control itself: it waits for
// data to arrive if the input FIFO is empty (paper §2.2), which is why
// completion is simply max(now, End).
//
//nectar:takes-ownership d retired at DMA completion, or dropped when the buffer is undersized
func (c *CAB) StartRxDMA(d *RxDesc, dst []byte, done func(ok bool)) {
	payload := d.Payload()
	if len(dst) < len(payload) {
		c.k.Fatalf("cab%d: rx DMA buffer %d < payload %d", c.node, len(dst), len(payload))
		d.Release() // the DMA never starts: drop the frame instead of stranding the descriptor
		return
	}
	doneAt := d.End
	if now := c.k.Now(); now > doneAt {
		doneAt = now
	}
	d.dmaDst = dst
	d.dmaDone = done
	c.k.At(doneAt, d.dmaFn)
}

// dmaComplete is the descriptor's DMA-completion event: check the CRC,
// copy the payload out, run the completion upcall, and retire the frame.
func (d *RxDesc) dmaComplete() {
	ok := d.CRCOK()
	if !ok {
		d.cab.crcErrors++
	}
	copy(d.dmaDst, d.Payload())
	d.dmaDone(ok)
	d.Release() // payload copied out; frame and descriptor are dead
}

// getDesc returns a receive descriptor from the CAB's free list. The
// miss path fills the pool, building the descriptor's step callbacks
// once; steady state reuses them.
//
//nectar:hotpath
func (c *CAB) getDesc() *RxDesc {
	if d, ok := c.descFree.Get(); ok {
		return d
	}
	return c.newDesc()
}

// newDesc is getDesc's miss path: a descriptor with its step callbacks
// built once for its lifetime.
//
//nectar:hotpath-exempt pool miss: the callbacks built here run later as their own events, never inside getDesc
func (c *CAB) newDesc() *RxDesc {
	d := &RxDesc{cab: c}
	d.headerFn = d.header
	d.intrFn = d.interrupt
	d.dmaFn = d.dmaComplete
	return d
}
