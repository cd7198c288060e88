package nectar

import (
	"fmt"

	"nectar/internal/obs"
	"nectar/internal/pool"
	"nectar/internal/proto/datalink"
	"nectar/internal/proto/wire"
	"nectar/internal/rt/exec"
	"nectar/internal/rt/mailbox"
	"nectar/internal/rt/syncs"
	"nectar/internal/rt/threads"
	"nectar/internal/sim"
)

// RMP is the Nectar reliable message protocol (paper §4): "a simple
// stop-and-wait protocol". One message per peer is outstanding at a time;
// the receiver acknowledges every data packet and delivers in-order,
// deduplicating by sequence number; the sender retransmits on a fixed
// timeout. RMP does no software checksum — it relies on the CRC computed
// by the CAB hardware (paper §6.2), which is why it outruns TCP in
// Figure 7.
type RMP struct {
	dl      *datalink.Layer
	rt      *mailbox.Runtime
	sendBox *mailbox.Mailbox
	inBox   *mailbox.Mailbox
	peers   map[wire.NodeID]*rmpPeer
	window  int // max outstanding messages per peer (1 = paper's stop-and-wait)

	reqFree pool.FreeList[*rmpReq] // request records; see rmpReq

	sent, acked, retrans, delivered, dups, noBox uint64
	timeouts                                     *obs.Counter // requests failed after MaxRetries

	obs  *obs.Observer
	node int
}

type rmpPeer struct {
	r *RMP

	// Sender side.
	txSeq    uint32
	pending  []*rmpReq // FIFO; the first `inFlight` entries are sent, unacked
	inFlight int
	timer    sim.Timer

	// The retransmission timer's event and interrupt handler, built by
	// the first armTimer and reused by every later one.
	onRTO     func()
	onTimeout func(t *threads.Thread)

	// Receiver side.
	rxExpected uint32
}

// rmpReq is one queued reliable send. Records come from RMP.reqFree and
// go back to it once nothing reads them: completeHead returns the record
// of a host request (one sendRequest took), and SendBlocking returns its
// own after it reads doneSt. done is named once per record, so a CAB
// sender blocks on a Cond whose waiter slice is already grown.
type rmpReq struct {
	dst     wire.MailboxAddr
	srcBox  wire.MailboxID
	data    []byte       // payload to transmit (CAB memory or caller bytes)
	reqMsg  *mailbox.Msg // send-box message to release on completion (nil for direct sends)
	status  *syncs.Sync
	done    threads.Cond // for blocking direct senders
	doneSt  uint32
	seq     uint32
	retries int
}

// newReq takes a request record from the pool.
func (r *RMP) newReq() *rmpReq {
	req, ok := r.reqFree.Get()
	if !ok {
		req = &rmpReq{}
		req.done.Init("rmp.done", "")
	}
	return req
}

// freeReq returns a record nothing reads any more to the pool, dropping
// its references so the pool pins no buffer.
func (r *RMP) freeReq(req *rmpReq) {
	req.data, req.reqMsg, req.status = nil, nil, nil
	req.doneSt, req.retries = 0, 0
	r.reqFree.Put(req)
}

// NewRMP installs the reliable message protocol on a CAB.
func NewRMP(dl *datalink.Layer, rt *mailbox.Runtime) *RMP {
	r := &RMP{
		dl:      dl,
		rt:      rt,
		sendBox: rt.Create("rmp.send"),
		inBox:   rt.Create("rmp.in"),
		peers:   make(map[wire.NodeID]*rmpPeer),
		window:  1,
	}
	dl.Register(wire.TypeRMP, r)
	r.sendBox.Serve("rmp-send", threads.SystemPriority, r.sendRequest)
	r.node = int(rt.CAB().Node())
	r.obs = obs.Ensure(rt.CAB().Kernel())
	m := r.obs.Metrics()
	m.Register(r)
	r.timeouts = m.Counter(obs.LayerRMP, "timeouts", rt.CAB().Scope())
	return r
}

// Gauges reports the protocol's send, delivery and recovery counts
// (obs.Source).
func (r *RMP) Gauges(emit func(layer obs.Layer, name, scope string, v uint64)) {
	scope := r.rt.CAB().Scope()
	emit(obs.LayerRMP, "sent", scope, r.sent)
	emit(obs.LayerRMP, "acked", scope, r.acked)
	emit(obs.LayerRMP, "retransmits", scope, r.retrans)
	emit(obs.LayerRMP, "delivered", scope, r.delivered)
	emit(obs.LayerRMP, "dups", scope, r.dups)
	emit(obs.LayerRMP, "no_box", scope, r.noBox)
}

// SetWindow sets the maximum number of outstanding (unacknowledged)
// messages per peer. 1 is the paper's simple stop-and-wait protocol; a
// larger window is this reproduction's extension (the wire format already
// reserves a Window field), used by the windowed-RMP ablation to measure
// what stop-and-wait costs on a 100 Mbit/s fiber.
func (r *RMP) SetWindow(n int) {
	if n < 1 {
		n = 1
	}
	r.window = n
}

func (r *RMP) peer(n wire.NodeID) *rmpPeer {
	p, ok := r.peers[n]
	if !ok {
		p = &rmpPeer{r: r}
		r.peers[n] = p
	}
	return p
}

// Send submits a reliable message to the remote mailbox dst through the
// send-request mailbox. status (optional) receives StatusOK once the
// message is acknowledged, or StatusTimeout if retransmissions are
// exhausted.
func (r *RMP) Send(ctx exec.Context, dst wire.MailboxAddr, srcBox wire.MailboxID, data []byte, status *syncs.Sync) {
	submitRequest(ctx, r.sendBox, reqHeader{
		DstNode: dst.Node, DstBox: dst.Box, SrcBox: srcBox,
	}, data, status)
}

// SendBlocking transmits a reliable message from a CAB thread and blocks
// until it is acknowledged (or fails), returning the completion status.
// This is the direct path CAB-resident senders use (paper §4.2) and the
// workload of the Figure 7 throughput experiment.
func (r *RMP) SendBlocking(ctx exec.Context, dst wire.MailboxAddr, srcBox wire.MailboxID, data []byte) uint32 {
	if ctx.IsHost() {
		panic("rmp: SendBlocking from host context; use Send")
	}
	req := r.newReq()
	req.dst, req.srcBox, req.data = dst, srcBox, data
	r.enqueue(ctx, req)
	for req.doneSt == 0 {
		req.done.Wait(ctx.T)
	}
	st := req.doneSt
	r.freeReq(req)
	return st
}

// sendRequest is the send thread's handler for one send request.
func (r *RMP) sendRequest(ctx exec.Context, m *mailbox.Msg) {
	var rh reqHeader
	rh.unmarshal(m.Data())
	m.TrimPrefix(ctx, reqHeaderLen)
	req := r.newReq()
	req.dst = wire.MailboxAddr{Node: rh.DstNode, Box: rh.DstBox}
	req.srcBox, req.data, req.reqMsg = rh.SrcBox, m.Data(), m
	if s, ok := m.Meta.(*syncs.Sync); ok {
		req.status = s
	}
	r.enqueue(ctx, req)
}

// enqueue queues a request on its peer and pumps the window.
func (r *RMP) enqueue(ctx exec.Context, req *rmpReq) {
	p := r.peer(req.dst.Node)
	req.seq = p.txSeq
	p.txSeq++
	p.pending = append(p.pending, req)
	r.pump(ctx, p)
}

// pump transmits queued requests while the window has room.
func (r *RMP) pump(ctx exec.Context, p *rmpPeer) {
	for p.inFlight < r.window && p.inFlight < len(p.pending) {
		req := p.pending[p.inFlight]
		p.inFlight++
		if !r.transmit(ctx, p, req) {
			return // NoRoute completion restructured the queue
		}
	}
}

// transmit sends one request and (re)arms the peer's timer. It reports
// false if the request failed immediately.
func (r *RMP) transmit(ctx exec.Context, p *rmpPeer, req *rmpReq) bool {
	ctx.Compute(ctx.Cost().NectarTransport)
	var hb [wire.NectarHeaderLen]byte
	h := wire.NectarHeader{
		DstBox: req.dst.Box, SrcBox: req.srcBox,
		Seq: req.seq, Flags: wire.FlagData, Len: uint16(len(req.data)),
		Window: uint8(r.window),
	}
	h.Marshal(hb[:])
	r.sent++
	if r.obs.Tracing() {
		r.obs.InstantSeq(r.node, obs.LayerRMP, "send", uint64(req.seq), len(req.data))
	}
	if err := r.dl.Send(ctx, wire.TypeRMP, req.dst.Node, hb[:], req.data); err != nil {
		r.completeHead(ctx, p, StatusNoRoute)
		return false
	}
	r.armTimer(p)
	return true
}

// armTimer (re)arms the peer's retransmission timer.
func (r *RMP) armTimer(p *rmpPeer) {
	p.timer.Stop()
	if p.onRTO == nil {
		p.onRTO = p.rto
		p.onTimeout = p.timeout
	}
	p.timer = r.rt.CAB().Kernel().After(RTO, p.onRTO)
}

// rto is the retransmission timer's event: the timeout runs as an
// interrupt on the CAB.
func (p *rmpPeer) rto() {
	p.r.rt.CAB().Sched.RaiseInterrupt("rmp-rto", p.onTimeout)
}

// timeout is the retransmission interrupt's handler.
func (p *rmpPeer) timeout(t *threads.Thread) { p.r.timeout(exec.OnCAB(t), p) }

// timeout retransmits every outstanding request (go-back-N) or fails the
// head once its retries are exhausted.
func (r *RMP) timeout(ctx exec.Context, p *rmpPeer) {
	if p.inFlight == 0 {
		return // acked while the interrupt was pending
	}
	head := p.pending[0]
	head.retries++
	if head.retries > MaxRetries {
		r.timeouts.Inc()
		if r.obs.Tracing() {
			r.obs.InstantSeq(r.node, obs.LayerRMP, "timeout", uint64(head.seq), len(head.data))
		}
		r.completeHead(ctx, p, StatusTimeout)
		return
	}
	r.retrans++
	if r.obs.Tracing() {
		r.obs.InstantSeq(r.node, obs.LayerRMP, "rto", uint64(head.seq), len(head.data))
	}
	for i := 0; i < p.inFlight; i++ {
		if !r.transmit(ctx, p, p.pending[i]) {
			return
		}
	}
}

// handleAck processes a cumulative acknowledgment: ackNext is the
// receiver's next expected sequence, so everything below it is delivered.
func (r *RMP) handleAck(ctx exec.Context, p *rmpPeer, ackNext uint32) {
	progressed := false
	for p.inFlight > 0 && seqLT32(p.pending[0].seq, ackNext) {
		r.completeHead(ctx, p, StatusOK)
		progressed = true
	}
	if progressed {
		if p.inFlight > 0 {
			r.armTimer(p)
		} else {
			p.timer.Stop()
			p.timer = sim.Timer{}
		}
		r.pump(ctx, p)
	}
}

// seqLT32 compares sequence numbers mod 2^32.
func seqLT32(a, b uint32) bool { return int32(a-b) < 0 }

// completeHead finishes the head-of-line request with status st.
func (r *RMP) completeHead(ctx exec.Context, p *rmpPeer, st uint32) {
	req := p.pending[0]
	p.pending = sim.PopFront(p.pending)
	if p.inFlight > 0 {
		p.inFlight--
	}
	if st == StatusOK {
		r.acked++
	} else {
		// A failed head poisons the pipeline: stop the timer; later
		// requests will be driven by pump on the next enqueue/ack.
		p.timer.Stop()
		p.timer = sim.Timer{}
	}
	if req.status != nil {
		req.status.Write(ctx, st)
	}
	if req.reqMsg != nil {
		r.sendBox.EndGet(ctx, req.reqMsg)
		r.freeReq(req)
	} else {
		req.doneSt = st
		req.done.Broadcast()
	}
	if st != StatusOK {
		r.pump(ctx, p)
	}
}

// ack transmits a cumulative acknowledgment carrying the receiver's next
// expected sequence number.
func (r *RMP) ack(ctx exec.Context, src wire.NodeID, nextExpected uint32) {
	var hb [wire.NectarHeaderLen]byte
	h := wire.NectarHeader{Seq: nextExpected, Flags: wire.FlagAck}
	h.Marshal(hb[:])
	// Best effort; a lost ack is recovered by the sender's retransmit.
	_ = r.dl.Send(ctx, wire.TypeRMP, src, hb[:])
}

// --- datalink.Protocol ---

// InputMailbox implements datalink.Protocol.
func (r *RMP) InputMailbox() *mailbox.Mailbox { return r.inBox }

// StartOfData implements datalink.Protocol.
func (r *RMP) StartOfData(t *threads.Thread, src wire.NodeID, hdr []byte) bool {
	t.Compute(t.Cost().NectarTransport / 2)
	var h wire.NectarHeader
	if err := h.Unmarshal(hdr); err != nil {
		return false
	}
	return int(h.Len)+wire.NectarHeaderLen == len(hdr)
}

// EndOfData implements datalink.Protocol: acks and acking, in-order
// delivery with duplicate suppression.
func (r *RMP) EndOfData(t *threads.Thread, src wire.NodeID, m *mailbox.Msg) {
	ctx := exec.OnCAB(t)
	t.Compute(t.Cost().NectarTransport / 2)
	var h wire.NectarHeader
	if err := h.Unmarshal(m.Data()); err != nil {
		r.inBox.AbortPut(ctx, m)
		return
	}
	p := r.peer(src)
	switch {
	case h.Flags&wire.FlagAck != 0:
		r.inBox.AbortPut(ctx, m) // acks carry no payload to deliver
		r.handleAck(ctx, p, h.Seq)
	case h.Flags&wire.FlagData != 0:
		if h.Seq != p.rxExpected {
			// Duplicate or out-of-order: drop and re-ack cumulatively.
			r.dups++
			r.inBox.AbortPut(ctx, m)
			r.ack(ctx, src, p.rxExpected)
			return
		}
		dst, ok := r.rt.Lookup(h.DstBox)
		if !ok {
			r.noBox++
			r.inBox.AbortPut(ctx, m)
			r.ack(ctx, src, p.rxExpected)
			return
		}
		p.rxExpected++
		r.ack(ctx, src, p.rxExpected)
		m.TrimPrefix(ctx, wire.NectarHeaderLen)
		m.From = wire.MailboxAddr{Node: src, Box: h.SrcBox}
		r.delivered++
		n := m.Len()
		r.inBox.Enqueue(ctx, m, dst)
		if r.obs.Tracing() {
			r.obs.InstantSeq(r.node, obs.LayerRMP, "deliver", uint64(h.Seq), n)
		}
	default:
		r.inBox.AbortPut(ctx, m)
	}
}

func (r *RMP) String() string {
	return fmt.Sprintf("rmp(node %d)", r.rt.CAB().Node())
}
