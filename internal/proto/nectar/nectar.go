// Package nectar implements the Nectar-specific transport protocols of
// paper §4: an unreliable datagram protocol, the reliable message protocol
// (RMP — "a simple stop-and-wait protocol"), and the request-response
// protocol (RRP) that provides the transport mechanism for client-server
// RPC.
//
// All three share the structure the paper describes for its transports:
// a send-request mailbox through which host processes submit work to a
// protocol thread on the CAB (CAB-resident senders call the protocol
// directly, without involving the thread), an input mailbox registered
// with the datalink layer, delivery into destination mailboxes with the
// copy-free Enqueue operation, and completion status returned to senders
// through syncs (§3.4).
package nectar

import (
	"encoding/binary"

	"nectar/internal/proto/datalink"
	"nectar/internal/proto/wire"
	"nectar/internal/rt/exec"
	"nectar/internal/rt/mailbox"
	"nectar/internal/rt/syncs"
	"nectar/internal/sim"
)

// Send completion status values written to a request's sync.
const (
	StatusOK      uint32 = 1 // delivered (RMP/RRP: acknowledged)
	StatusTimeout uint32 = 2 // retransmissions exhausted
	StatusNoRoute uint32 = 3 // destination unknown to the datalink layer
	StatusNoBox   uint32 = 4 // RRP: reply arrived but carried an error
)

// RTO is the retransmission timeout of RMP and RRP. The prototype's fiber
// RTTs are well under a millisecond; a fixed conservative timer suits the
// low-loss dedicated network (1990-era stacks used coarse fixed timers).
const RTO = 10 * sim.Millisecond

// MaxRetries bounds retransmission attempts before a request fails.
const MaxRetries = 5

// reqHeaderLen is the length of the request header that prefixes every
// message in a protocol's send-request mailbox.
const reqHeaderLen = 12

// reqHeader is the send-request header written by senders into a
// protocol's send-request mailbox (paper §4.2 describes the equivalent
// TCP send-request interface).
type reqHeader struct {
	DstNode wire.NodeID
	DstBox  wire.MailboxID
	SrcBox  wire.MailboxID // reply/source mailbox on the sender's node
	Kind    uint8          // kindSend or kindReply (RRP servers)
	XID     uint32         // RRP reply transaction id
}

const (
	kindSend  uint8 = 0
	kindReply uint8 = 1
)

func (h *reqHeader) marshal(b []byte) {
	binary.BigEndian.PutUint16(b[0:], uint16(h.DstNode))
	binary.BigEndian.PutUint16(b[2:], uint16(h.DstBox))
	binary.BigEndian.PutUint16(b[4:], uint16(h.SrcBox))
	b[6] = h.Kind
	b[7] = 0
	binary.BigEndian.PutUint32(b[8:], h.XID)
}

func (h *reqHeader) unmarshal(b []byte) {
	h.DstNode = wire.NodeID(binary.BigEndian.Uint16(b[0:]))
	h.DstBox = wire.MailboxID(binary.BigEndian.Uint16(b[2:]))
	h.SrcBox = wire.MailboxID(binary.BigEndian.Uint16(b[4:]))
	h.Kind = b[6]
	h.XID = binary.BigEndian.Uint32(b[8:])
}

// Transports bundles the three Nectar transports installed on one CAB.
type Transports struct {
	Datagram *Datagram
	RMP      *RMP
	RRP      *RRP
}

// Attach creates the three protocols on a CAB, registers them with its
// datalink layer, and starts their protocol threads.
func Attach(dl *datalink.Layer, rt *mailbox.Runtime) *Transports {
	return &Transports{
		Datagram: NewDatagram(dl, rt),
		RMP:      NewRMP(dl, rt),
		RRP:      NewRRP(dl, rt),
	}
}

// writeStatus writes st to the sync attached to a send request, if any.
func writeStatus(ctx exec.Context, m *mailbox.Msg, st uint32) {
	if s, ok := m.Meta.(*syncs.Sync); ok && s != nil {
		s.Write(ctx, st)
	}
}

// submitRequest writes a send request (header + data) into a protocol's
// send-request mailbox; the protocol thread on the CAB picks it up. status
// may be nil.
func submitRequest(ctx exec.Context, box *mailbox.Mailbox, h reqHeader, data []byte, status *syncs.Sync) {
	m := box.BeginPut(ctx, reqHeaderLen+len(data))
	var hb [reqHeaderLen]byte
	h.marshal(hb[:])
	m.Write(ctx, 0, hb[:])
	if len(data) > 0 {
		m.Write(ctx, reqHeaderLen, data)
	}
	m.Meta = status
	box.EndPut(ctx, m)
}
