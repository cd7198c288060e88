package nectar

import (
	"nectar/internal/obs"
	"nectar/internal/proto/datalink"
	"nectar/internal/proto/wire"
	"nectar/internal/rt/exec"
	"nectar/internal/rt/mailbox"
	"nectar/internal/rt/syncs"
	"nectar/internal/rt/threads"
	"nectar/internal/sim"
)

// RRP is the Nectar request-response protocol (paper §4): "the transport
// mechanism for client-server RPC calls". A request is retransmitted until
// its reply arrives (the reply acts as the acknowledgment); servers keep a
// per-client cache of the last reply so a retransmitted request is
// answered without re-executing the service (at-most-once execution).
type RRP struct {
	dl      *datalink.Layer
	rt      *mailbox.Runtime
	sendBox *mailbox.Mailbox
	inBox   *mailbox.Mailbox

	nextXID uint32
	pending map[uint32]*rrpCall
	dedup   map[wire.MailboxAddr]*rrpServerEntry

	calls, replies, retrans, dedupHits, noBox uint64

	obs  *obs.Observer
	node int
}

// rrpCall is an outstanding client request.
type rrpCall struct {
	r        *RRP
	xid      uint32
	dst      wire.MailboxAddr
	srcBox   wire.MailboxID
	data     []byte
	reqMsg   *mailbox.Msg // send-box message retained for retransmission
	status   *syncs.Sync
	replyBox *mailbox.Mailbox
	timer    sim.Timer
	retries  int

	// The retransmission timer's event and interrupt handler, built by
	// the call's first transmission and reused by its retransmissions.
	onRTO     func()
	onTimeout func(t *threads.Thread)
}

// rrpServerEntry is the per-client duplicate-suppression state.
type rrpServerEntry struct {
	lastSeen  uint32 // highest request xid delivered to the service
	lastXID   uint32 // xid of the cached reply
	replyData []byte // cached reply payload for retransmitted requests
	haveReply bool
}

// NewRRP installs the request-response protocol on a CAB.
func NewRRP(dl *datalink.Layer, rt *mailbox.Runtime) *RRP {
	r := &RRP{
		dl:      dl,
		rt:      rt,
		sendBox: rt.Create("rrp.send"),
		inBox:   rt.Create("rrp.in"),
		pending: make(map[uint32]*rrpCall),
		dedup:   make(map[wire.MailboxAddr]*rrpServerEntry),
	}
	dl.Register(wire.TypeRRP, r)
	r.sendBox.Serve("rrp-send", threads.SystemPriority, r.sendRequest)
	r.node = int(rt.CAB().Node())
	r.obs = obs.Ensure(rt.CAB().Kernel())
	r.obs.Metrics().Register(r)
	return r
}

// Gauges reports the protocol's call, reply and recovery counts
// (obs.Source).
func (r *RRP) Gauges(emit func(layer obs.Layer, name, scope string, v uint64)) {
	scope := r.rt.CAB().Scope()
	emit(obs.LayerRRP, "calls", scope, r.calls)
	emit(obs.LayerRRP, "replies", scope, r.replies)
	emit(obs.LayerRRP, "retransmits", scope, r.retrans)
	emit(obs.LayerRRP, "dedup_hits", scope, r.dedupHits)
	emit(obs.LayerRRP, "no_box", scope, r.noBox)
}

// Call issues a request to the service mailbox dst. The reply is delivered
// into replyBox; status receives StatusOK when it arrives (or a failure
// code). The caller then collects the reply with replyBox.BeginGet.
//
// Typical client (host process or CAB thread):
//
//	st := pool.Alloc(ctx)
//	rrp.Call(ctx, service, req, replyBox, st)
//	if st.Read(ctx) == nectar.StatusOK {
//	    reply := replyBox.BeginGetPoll(ctx)
//	    ...
//	}
func (r *RRP) Call(ctx exec.Context, dst wire.MailboxAddr, data []byte, replyBox *mailbox.Mailbox, status *syncs.Sync) {
	if ctx.IsHost() {
		m := r.sendBox.BeginPut(ctx, reqHeaderLen+len(data))
		var hb [reqHeaderLen]byte
		h := reqHeader{DstNode: dst.Node, DstBox: dst.Box, SrcBox: replyBox.ID(), Kind: kindSend}
		h.marshal(hb[:])
		m.Write(ctx, 0, hb[:])
		if len(data) > 0 {
			m.Write(ctx, reqHeaderLen, data)
		}
		m.Meta = &rrpSubmitMeta{status: status, replyBox: replyBox}
		r.sendBox.EndPut(ctx, m)
		return
	}
	r.startCall(ctx, &rrpCall{dst: dst, srcBox: replyBox.ID(), data: data, status: status, replyBox: replyBox})
}

// rrpSubmitMeta carries the client references a host request needs on the
// CAB side.
type rrpSubmitMeta struct {
	status   *syncs.Sync
	replyBox *mailbox.Mailbox
}

// Reply sends the response for a request message previously delivered to
// a service mailbox (m carries the client's address and transaction ID).
// Works from CAB threads and host processes.
func (r *RRP) Reply(ctx exec.Context, req *mailbox.Msg, data []byte) {
	if ctx.IsHost() {
		m := r.sendBox.BeginPut(ctx, reqHeaderLen+len(data))
		var hb [reqHeaderLen]byte
		h := reqHeader{DstNode: req.From.Node, DstBox: req.From.Box, Kind: kindReply, XID: req.Tag}
		h.marshal(hb[:])
		m.Write(ctx, 0, hb[:])
		if len(data) > 0 {
			m.Write(ctx, reqHeaderLen, data)
		}
		r.sendBox.EndPut(ctx, m)
		return
	}
	r.sendReply(ctx, req.From, req.Tag, data)
}

// sendRequest is the send thread's handler for one host-submitted call
// or reply.
func (r *RRP) sendRequest(ctx exec.Context, m *mailbox.Msg) {
	var rh reqHeader
	rh.unmarshal(m.Data())
	m.TrimPrefix(ctx, reqHeaderLen)
	switch rh.Kind {
	case kindSend:
		meta, _ := m.Meta.(*rrpSubmitMeta)
		call := &rrpCall{
			dst:    wire.MailboxAddr{Node: rh.DstNode, Box: rh.DstBox},
			srcBox: rh.SrcBox,
			data:   m.Data(),
			reqMsg: m,
		}
		if meta != nil {
			call.status = meta.status
			call.replyBox = meta.replyBox
		}
		r.startCall(ctx, call)
	case kindReply:
		r.sendReply(ctx, wire.MailboxAddr{Node: rh.DstNode, Box: rh.DstBox}, rh.XID, m.Data())
		r.sendBox.EndGet(ctx, m)
	default:
		r.sendBox.EndGet(ctx, m)
	}
}

// startCall registers and transmits a new request.
func (r *RRP) startCall(ctx exec.Context, c *rrpCall) {
	r.nextXID++
	c.xid = r.nextXID
	c.r = r
	r.pending[c.xid] = c
	r.calls++
	if r.obs.Tracing() {
		r.obs.InstantSeq(r.node, obs.LayerRRP, "call", uint64(c.xid), len(c.data))
	}
	r.transmitReq(ctx, c)
}

func (r *RRP) transmitReq(ctx exec.Context, c *rrpCall) {
	ctx.Compute(ctx.Cost().NectarTransport)
	var hb [wire.NectarHeaderLen]byte
	h := wire.NectarHeader{
		DstBox: c.dst.Box, SrcBox: c.srcBox,
		Seq: c.xid, Flags: wire.FlagData, Len: uint16(len(c.data)),
	}
	h.Marshal(hb[:])
	if err := r.dl.Send(ctx, wire.TypeRRP, c.dst.Node, hb[:], c.data); err != nil {
		r.finishCall(ctx, c, StatusNoRoute)
		return
	}
	if c.onRTO == nil {
		c.onRTO = c.rto
	}
	c.timer = r.rt.CAB().Kernel().After(RTO, c.onRTO)
}

// rto is the retransmission timer's event: the timeout runs as an
// interrupt on the CAB. The handler is built when a call first times
// out, which most calls never do.
func (c *rrpCall) rto() {
	if c.onTimeout == nil {
		c.onTimeout = c.timeout
	}
	c.r.rt.CAB().Sched.RaiseInterrupt("rrp-rto", c.onTimeout)
}

// timeout is the retransmission interrupt's handler.
func (c *rrpCall) timeout(t *threads.Thread) { c.r.timeout(exec.OnCAB(t), c) }

func (r *RRP) timeout(ctx exec.Context, c *rrpCall) {
	if r.pending[c.xid] != c {
		return // completed while the interrupt was pending
	}
	c.retries++
	if c.retries > MaxRetries {
		r.finishCall(ctx, c, StatusTimeout)
		return
	}
	r.retrans++
	if r.obs.Tracing() {
		r.obs.InstantSeq(r.node, obs.LayerRRP, "rto", uint64(c.xid), len(c.data))
	}
	r.transmitReq(ctx, c)
}

// finishCall completes a call with status st (reply delivery happens
// separately in EndOfData).
func (r *RRP) finishCall(ctx exec.Context, c *rrpCall, st uint32) {
	delete(r.pending, c.xid)
	c.timer.Stop()
	c.timer = sim.Timer{}
	if c.reqMsg != nil {
		r.sendBox.EndGet(ctx, c.reqMsg)
		c.reqMsg = nil
	}
	if c.status != nil {
		c.status.Write(ctx, st)
	}
}

// sendReply transmits (and caches) a reply to client addr for transaction
// xid.
func (r *RRP) sendReply(ctx exec.Context, client wire.MailboxAddr, xid uint32, data []byte) {
	e := r.serverEntry(client)
	e.lastXID = xid
	e.replyData = append(e.replyData[:0], data...)
	e.haveReply = true
	r.replies++
	if r.obs.Tracing() {
		r.obs.InstantSeq(r.node, obs.LayerRRP, "reply", uint64(xid), len(data))
	}
	r.transmitReply(ctx, client, xid, e.replyData)
}

func (r *RRP) transmitReply(ctx exec.Context, client wire.MailboxAddr, xid uint32, data []byte) {
	ctx.Compute(ctx.Cost().NectarTransport)
	var hb [wire.NectarHeaderLen]byte
	h := wire.NectarHeader{
		DstBox: client.Box,
		Seq:    xid, Flags: wire.FlagReply, Len: uint16(len(data)),
	}
	h.Marshal(hb[:])
	// Best effort: a lost reply is recovered by the client's request
	// retransmission hitting the dedup cache.
	_ = r.dl.Send(ctx, wire.TypeRRP, client.Node, hb[:], data)
}

func (r *RRP) serverEntry(client wire.MailboxAddr) *rrpServerEntry {
	e, ok := r.dedup[client]
	if !ok {
		e = &rrpServerEntry{}
		r.dedup[client] = e
	}
	return e
}

// --- datalink.Protocol ---

// InputMailbox implements datalink.Protocol.
func (r *RRP) InputMailbox() *mailbox.Mailbox { return r.inBox }

// StartOfData implements datalink.Protocol.
func (r *RRP) StartOfData(t *threads.Thread, src wire.NodeID, hdr []byte) bool {
	t.Compute(t.Cost().NectarTransport / 2)
	var h wire.NectarHeader
	if err := h.Unmarshal(hdr); err != nil {
		return false
	}
	return int(h.Len)+wire.NectarHeaderLen == len(hdr)
}

// EndOfData implements datalink.Protocol: dispatch requests to service
// mailboxes (with duplicate suppression) and replies to waiting calls.
func (r *RRP) EndOfData(t *threads.Thread, src wire.NodeID, m *mailbox.Msg) {
	ctx := exec.OnCAB(t)
	t.Compute(t.Cost().NectarTransport / 2)
	var h wire.NectarHeader
	if err := h.Unmarshal(m.Data()); err != nil {
		r.inBox.AbortPut(ctx, m)
		return
	}
	switch {
	case h.Flags&wire.FlagReply != 0:
		c, ok := r.pending[h.Seq]
		if !ok {
			r.inBox.AbortPut(ctx, m) // stale reply
			return
		}
		m.TrimPrefix(ctx, wire.NectarHeaderLen)
		m.From = wire.MailboxAddr{Node: src, Box: h.SrcBox}
		if c.replyBox != nil {
			r.inBox.Enqueue(ctx, m, c.replyBox)
		} else {
			r.inBox.AbortPut(ctx, m)
		}
		r.finishCall(ctx, c, StatusOK)

	case h.Flags&wire.FlagData != 0:
		client := wire.MailboxAddr{Node: src, Box: h.SrcBox}
		e := r.serverEntry(client)
		if h.Seq == e.lastXID && e.haveReply {
			// Duplicate of an answered request: resend the cached reply.
			r.dedupHits++
			r.inBox.AbortPut(ctx, m)
			r.transmitReply(ctx, client, h.Seq, e.replyData)
			return
		}
		if h.Seq <= e.lastSeen && e.lastSeen != 0 {
			// Already delivered (the service may still be working on
			// it): drop the duplicate; the client keeps retrying until
			// the reply is cached. At-most-once execution.
			r.dedupHits++
			r.inBox.AbortPut(ctx, m)
			return
		}
		dst, ok := r.rt.Lookup(h.DstBox)
		if !ok {
			r.noBox++
			r.inBox.AbortPut(ctx, m)
			return
		}
		e.lastSeen = h.Seq
		m.TrimPrefix(ctx, wire.NectarHeaderLen)
		m.From = client
		m.Tag = h.Seq
		r.inBox.Enqueue(ctx, m, dst)

	default:
		r.inBox.AbortPut(ctx, m)
	}
}
