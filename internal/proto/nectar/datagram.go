package nectar

import (
	"nectar/internal/obs"
	"nectar/internal/proto/datalink"
	"nectar/internal/proto/wire"
	"nectar/internal/rt/exec"
	"nectar/internal/rt/mailbox"
	"nectar/internal/rt/syncs"
	"nectar/internal/rt/threads"
)

// Datagram is the Nectar unreliable datagram protocol (paper §4, §6.1):
// fire-and-forget delivery of a message to a remote mailbox. It is the
// protocol behind the paper's 325 µs host-to-host round trip.
type Datagram struct {
	dl      *datalink.Layer
	rt      *mailbox.Runtime
	sendBox *mailbox.Mailbox
	inBox   *mailbox.Mailbox

	sent, delivered, noBox uint64

	obs  *obs.Observer
	node int
}

// NewDatagram installs the datagram protocol on a CAB.
func NewDatagram(dl *datalink.Layer, rt *mailbox.Runtime) *Datagram {
	d := &Datagram{
		dl:      dl,
		rt:      rt,
		sendBox: rt.Create("datagram.send"),
		inBox:   rt.Create("datagram.in"),
	}
	dl.Register(wire.TypeDatagram, d)
	d.sendBox.Serve("datagram-send", threads.SystemPriority, d.sendRequest)
	d.node = int(rt.CAB().Node())
	d.obs = obs.Ensure(rt.CAB().Kernel())
	d.obs.Metrics().Register(d)
	return d
}

// Gauges reports the datagrams sent, delivered and dropped (obs.Source).
func (d *Datagram) Gauges(emit func(layer obs.Layer, name, scope string, v uint64)) {
	scope := d.rt.CAB().Scope()
	emit(obs.LayerDatagram, "sent", scope, d.sent)
	emit(obs.LayerDatagram, "delivered", scope, d.delivered)
	emit(obs.LayerDatagram, "no_box", scope, d.noBox)
}

// Send submits a datagram for transmission to the remote mailbox dst.
// srcBox names the sender's reply mailbox (0 if none); status, if
// non-nil, receives a completion code once the datagram has been handed
// to the network (delivery itself is unacknowledged).
//
// Host processes enqueue a request for the CAB's datagram thread; the
// same path works from CAB threads, but CAB-resident senders can use
// SendDirect to bypass the thread handoff.
func (d *Datagram) Send(ctx exec.Context, dst wire.MailboxAddr, srcBox wire.MailboxID, data []byte, status *syncs.Sync) {
	submitRequest(ctx, d.sendBox, reqHeader{
		DstNode: dst.Node, DstBox: dst.Box, SrcBox: srcBox,
	}, data, status)
}

// SendDirect transmits a datagram immediately from a CAB context (paper
// §4.2: "CAB-resident senders can do this directly without involving the
// ... send thread").
func (d *Datagram) SendDirect(ctx exec.Context, dst wire.MailboxAddr, srcBox wire.MailboxID, data []byte) error {
	ctx.Compute(ctx.Cost().NectarTransport)
	var hb [wire.NectarHeaderLen]byte
	h := wire.NectarHeader{DstBox: dst.Box, SrcBox: srcBox, Flags: wire.FlagData, Len: uint16(len(data))}
	h.Marshal(hb[:])
	d.sent++
	if d.obs.Tracing() {
		d.obs.InstantSeq(d.node, obs.LayerDatagram, "send", uint64(dst.Box), len(data))
	}
	return d.dl.Send(ctx, wire.TypeDatagram, dst.Node, hb[:], data)
}

// sendRequest is the send thread's handler for one send request.
func (d *Datagram) sendRequest(ctx exec.Context, m *mailbox.Msg) {
	var rh reqHeader
	rh.unmarshal(m.Data())
	err := d.SendDirect(ctx, wire.MailboxAddr{Node: rh.DstNode, Box: rh.DstBox}, rh.SrcBox, m.Data()[reqHeaderLen:])
	st := StatusOK
	if err != nil {
		st = StatusNoRoute
	}
	writeStatus(ctx, m, st)
	d.sendBox.EndGet(ctx, m)
}

// --- datalink.Protocol ---

// InputMailbox implements datalink.Protocol.
func (d *Datagram) InputMailbox() *mailbox.Mailbox { return d.inBox }

// StartOfData implements datalink.Protocol: sanity-check the transport
// header while the payload streams in.
func (d *Datagram) StartOfData(t *threads.Thread, src wire.NodeID, hdr []byte) bool {
	t.Compute(t.Cost().NectarTransport / 2)
	var h wire.NectarHeader
	if err := h.Unmarshal(hdr); err != nil {
		return false
	}
	return int(h.Len)+wire.NectarHeaderLen == len(hdr)
}

// EndOfData implements datalink.Protocol: strip the transport header and
// move the message to the destination mailbox without copying.
func (d *Datagram) EndOfData(t *threads.Thread, src wire.NodeID, m *mailbox.Msg) {
	ctx := exec.OnCAB(t)
	t.Compute(t.Cost().NectarTransport / 2)
	var h wire.NectarHeader
	if err := h.Unmarshal(m.Data()); err != nil {
		d.inBox.AbortPut(ctx, m)
		return
	}
	dst, ok := d.rt.Lookup(h.DstBox)
	if !ok {
		d.noBox++
		d.inBox.AbortPut(ctx, m)
		return
	}
	m.TrimPrefix(ctx, wire.NectarHeaderLen)
	m.From = wire.MailboxAddr{Node: src, Box: h.SrcBox}
	d.delivered++
	n := m.Len()
	d.inBox.Enqueue(ctx, m, dst)
	// The delivery instant fires once the message is in its mailbox:
	// Figure 6's "DMA + transport deliver" stage ends here.
	if d.obs.Tracing() {
		d.obs.InstantSeq(d.node, obs.LayerDatagram, "deliver", uint64(h.DstBox), n)
	}
}
