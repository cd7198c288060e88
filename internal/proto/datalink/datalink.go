// Package datalink implements the CAB's datalink layer (paper §4.1): it
// reads the datalink header of an arriving frame, allocates buffer space
// in the appropriate protocol input mailbox, initiates the DMA that places
// the payload there, and issues the start-of-data and end-of-data upcalls
// to the bound transport protocol — the start-of-data upcall running while
// the remainder of the packet is still being received, "so that useful
// work can be done" (e.g. IP's header sanity check).
//
// Reception normally happens at interrupt time, as in the paper's
// production configuration. The §3.1 ablation — moving protocol input
// processing into a high-priority system thread — is selected with
// cab.SetRxInterruptMode(false) before NewLayer; arriving frames are then
// queued to a dedicated rx thread and processed there, paying extra
// context switches but spending less time with interrupts disabled.
package datalink

import (
	"nectar/internal/hw/cab"
	"nectar/internal/model"
	"nectar/internal/obs"
	"nectar/internal/pool"
	"nectar/internal/proto/wire"
	"nectar/internal/rt/exec"
	"nectar/internal/rt/mailbox"
	"nectar/internal/rt/threads"
	"nectar/internal/sim"
)

// Protocol is a transport bound to a datalink frame type.
type Protocol interface {
	// InputMailbox is the mailbox that receives this protocol's frames
	// (paper §4.1: "this mailbox constitutes the entire receive interface
	// between IP and higher protocols" — same structure one level down).
	InputMailbox() *mailbox.Mailbox
	// StartOfData is the upcall issued once the protocol header has
	// arrived, while the payload may still be streaming in. hdr aliases
	// the frame's payload prefix. Returning false drops the frame.
	StartOfData(t *threads.Thread, src wire.NodeID, hdr []byte) bool
	// EndOfData is the upcall issued when the complete, CRC-verified
	// payload sits in m (a message reserved in InputMailbox but not yet
	// delivered). The protocol delivers it (EndPut/Enqueue) or aborts.
	EndOfData(t *threads.Thread, src wire.NodeID, m *mailbox.Msg)
}

// Layer is the datalink software on one CAB.
type Layer struct {
	cab    *cab.CAB
	cost   *model.CostModel
	protos map[uint8]Protocol

	// Polling-thread mode (ablation A1).
	rx     rxQueue
	rxCond *threads.Cond

	rxFree pool.FreeList[*rxFrame] // end-of-data records ready for reuse

	// Drop counters.
	unknownType uint64
	noBuffer    uint64
	crcDrops    uint64
	vetoed      uint64
	delivered   uint64

	obs *obs.Observer
}

// rxItem is one unit of polling-mode rx work.
type rxItem struct {
	desc *cab.RxDesc // start-of-packet work, or
	end  *rxFrame    // an end-of-data delivery
}

// rxFrame is one frame between its receive DMA and its end-of-data
// upcall: what the upcall needs, and the two callbacks that carry it
// there, built once per record (getRx) so that a frame's completion
// schedules no closure.
type rxFrame struct {
	l    *Layer
	p    Protocol
	m    *mailbox.Msg
	src  wire.NodeID
	span obs.SpanID
	ok   bool // the hardware CRC check

	dmaDoneFn func(ok bool)
	deliverFn func(t *threads.Thread)
}

// NewLayer installs the datalink layer on a CAB. Each bound protocol
// provides the input mailbox its frames are received into.
func NewLayer(c *cab.CAB) *Layer {
	l := &Layer{cab: c, cost: c.Cost(), protos: make(map[uint8]Protocol)}
	if c.RxInterruptMode() {
		c.OnReceive(func(t *threads.Thread, d *cab.RxDesc) { l.receive(t, d) })
	} else {
		l.rxCond = threads.NewCond("datalink.rx")
		c.OnReceive(func(_ *threads.Thread, d *cab.RxDesc) {
			// Kernel context: queue for the rx thread.
			l.rx.q = append(l.rx.q, rxItem{desc: d})
			l.rxCond.Signal()
		})
		l.rx.l = l
		c.Sched.Serve("datalink-rx", threads.SystemPriority, 0, l.rxCond, &l.rx)
	}
	l.obs = obs.Ensure(c.Kernel())
	l.obs.Metrics().Register(l)
	return l
}

// Gauges reports the frames delivered and the drop counts (obs.Source).
func (l *Layer) Gauges(emit func(layer obs.Layer, name, scope string, v uint64)) {
	scope := l.cab.Scope()
	emit(obs.LayerDatalink, "delivered", scope, l.delivered)
	emit(obs.LayerDatalink, "unknown_type", scope, l.unknownType)
	emit(obs.LayerDatalink, "no_buffer", scope, l.noBuffer)
	emit(obs.LayerDatalink, "crc_drops", scope, l.crcDrops)
	emit(obs.LayerDatalink, "vetoed", scope, l.vetoed)
}

// Register binds a protocol to a frame type.
func (l *Layer) Register(typ uint8, p Protocol) { l.protos[typ] = p }

// Send transmits a frame of the given type to dst, gathering the payload
// spans without copying (paper §4.1's IP_Output: header template from one
// buffer, data from another). Callable from CAB threads and interrupt
// handlers.
func (l *Layer) Send(ctx exec.Context, typ uint8, dst wire.NodeID, payload ...[]byte) error {
	// Transmit-preparation bracket: every transmit path goes through this
	// function and consumes the datalink+DMA compute below before the
	// frame can reach the fiber, which is what lets a shard gateway bound
	// the board's earliest future transmission (see CAB.BeginTxPrep).
	prep := l.cost.DatalinkProcess + l.cost.DMASetup
	l.cab.BeginTxPrep(l.cab.Kernel().Now() + sim.Time(prep))
	defer l.cab.EndTxPrep()
	ctx.Compute(prep)
	if l.obs.Tracing() {
		n := 0
		for _, p := range payload {
			n += len(p)
		}
		l.obs.InstantSeq(int(l.cab.Node()), obs.LayerDatalink, "tx", uint64(dst), n)
	}
	return l.cab.Transmit(dst, wire.DatalinkHeader{Type: typ}, false, payload...)
}

// rxQueue is the work of the polling-mode input thread (ablation A1), a
// threads.Queue.
type rxQueue struct {
	l    *Layer
	q    []rxItem
	item rxItem // the item Take took
}

func (r *rxQueue) Take() bool {
	if len(r.q) == 0 {
		return false
	}
	r.item = r.q[0]
	r.q = sim.PopFront(r.q)
	return true
}

func (r *rxQueue) Serve(t *threads.Thread) {
	item := r.item
	r.item = rxItem{}
	if item.end != nil {
		item.end.deliver(t)
	} else {
		r.l.receive(t, item.desc)
	}
}

// receive processes one arriving frame: header parse, buffer reservation,
// start-of-data upcall, DMA, end-of-data upcall.
//
//nectar:takes-ownership d released on every drop path, otherwise retired by the receive DMA
func (l *Layer) receive(t *threads.Thread, d *cab.RxDesc) {
	ctx := exec.OnCAB(t)
	span := l.obs.BeginSeq(int(l.cab.Node()), obs.LayerDatalink, "rx", 0, 0, len(d.Frame))
	ctx.Compute(l.cost.DatalinkProcess)

	var hdr wire.DatalinkHeader
	if err := hdr.Unmarshal(d.Frame); err != nil {
		l.crcDrops++ // mangled beyond parsing
		l.obs.End(span, int(l.cab.Node()), obs.LayerDatalink, "rx")
		d.Release()
		return
	}
	p, ok := l.protos[hdr.Type]
	if !ok {
		l.unknownType++
		l.obs.End(span, int(l.cab.Node()), obs.LayerDatalink, "rx")
		d.Release()
		return
	}
	payload := d.Payload()
	m := p.InputMailbox().BeginPutNB(ctx, len(payload))
	if m == nil {
		// No buffer: the frame is lost, as when the paper's input pool
		// overflows; reliable transports recover by retransmission.
		l.noBuffer++
		l.obs.End(span, int(l.cab.Node()), obs.LayerDatalink, "rx")
		d.Release()
		return
	}
	if !p.StartOfData(t, hdr.Src, payload) {
		l.vetoed++
		p.InputMailbox().AbortPut(ctx, m)
		l.obs.End(span, int(l.cab.Node()), obs.LayerDatalink, "rx")
		d.Release()
		return
	}
	ctx.Compute(l.cost.DMASetup)
	f := l.getRx()
	f.p, f.m, f.src, f.span = p, m, hdr.Src, span
	l.cab.StartRxDMA(d, m.Data(), f.dmaDoneFn)
}

// getRx returns an end-of-data record from the layer's free list. The
// miss path fills the pool, building the record's callbacks once.
//
//nectar:hotpath
func (l *Layer) getRx() *rxFrame {
	if f, ok := l.rxFree.Get(); ok {
		return f
	}
	return l.newRx()
}

// newRx is getRx's miss path: a record with its callbacks built once for
// its lifetime.
//
//nectar:hotpath-exempt pool miss: the callbacks built here run later as their own events, never inside getRx
func (l *Layer) newRx() *rxFrame {
	f := &rxFrame{l: l}
	f.dmaDoneFn = f.dmaDone
	f.deliverFn = f.deliver
	return f
}

// dmaDone runs in kernel context at DMA completion: it delivers the
// end-of-data event the way this CAB is configured.
func (f *rxFrame) dmaDone(ok bool) {
	f.ok = ok
	l := f.l
	if l.cab.RxInterruptMode() {
		l.cab.Sched.RaiseInterrupt("end-of-data", f.deliverFn)
	} else {
		l.queueEnd(f)
	}
}

// deliver issues the end-of-data upcall (or drops a frame that failed
// its CRC) and returns the record to the free list.
func (f *rxFrame) deliver(t *threads.Thread) {
	l, m, span := f.l, f.m, f.span
	ctx := exec.OnCAB(t)
	if !f.ok {
		l.crcDrops++
		f.p.InputMailbox().AbortPut(ctx, m)
		l.obs.End(span, int(l.cab.Node()), obs.LayerDatalink, "rx")
	} else {
		l.delivered++
		f.p.EndOfData(t, f.src, m)
		l.obs.End(span, int(l.cab.Node()), obs.LayerDatalink, "rx")
	}
	f.p, f.m = nil, nil
	l.rxFree.Put(f)
}

// queueEnd queues a frame's end-of-data delivery for the rx thread in
// polling mode.
func (l *Layer) queueEnd(f *rxFrame) {
	l.rx.q = append(l.rx.q, rxItem{end: f})
	l.rxCond.Signal()
}
