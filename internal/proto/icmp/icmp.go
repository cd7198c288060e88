// Package icmp implements ICMP echo (ping) on the CAB. As in the paper
// (§4.1), ICMP is implemented as a mailbox upcall rather than a server
// thread: its handler runs as a side effect of IP's Enqueue into the ICMP
// input mailbox, with no context switch.
package icmp

import (
	"nectar/internal/proto/ip"
	"nectar/internal/proto/wire"
	"nectar/internal/rt/exec"
	"nectar/internal/rt/mailbox"
	"nectar/internal/rt/syncs"
	"nectar/internal/rt/threads"
)

// Layer is the ICMP instance on one CAB.
//
//nectar:api ICMP is a library layer exercised by this package's tests; no cluster boots it
type Layer struct {
	ip    *ip.Layer
	inBox *mailbox.Mailbox

	echoes, replies, unreachSent, unreachRecv uint64
	waiters                                   map[uint32]*pingWait // keyed by id<<16|seq
	onUnreachable                             func(origProto uint8, origDst uint32)
}

type pingWait struct {
	status *syncs.Sync
}

// NewLayer installs ICMP on an IP layer as an input-mailbox upcall.
//
//nectar:api ICMP is a library layer exercised by this package's tests; no cluster boots it
func NewLayer(l *ip.Layer) *Layer {
	ic := &Layer{
		ip:      l,
		inBox:   l.Runtime().Create("icmp.in"),
		waiters: make(map[uint32]*pingWait),
	}
	ic.inBox.SetUpcall(ic.upcall)
	l.Register(wire.ProtoICMP, ic)
	// Answer datagrams for unbound protocols with destination unreachable
	// (protocol-unreachable code 2, RFC 792).
	l.OnUnreachable(func(ctx exec.Context, h wire.IPv4Header, dg []byte) {
		ic.unreachSent++
		// Quote the original header plus the first 8 payload bytes.
		n := wire.IPv4HeaderLen + 8
		if n > len(dg) {
			n = len(dg)
		}
		quote := make([]byte, n)
		copy(quote, dg[:n])
		_ = ic.sendUnreachable(ctx, h.Src, quote)
	})
	return ic
}

// OnUnreachable registers an application callback fired when a
// destination-unreachable message arrives, identifying the failed
// datagram's protocol and destination.
func (ic *Layer) OnUnreachable(fn func(origProto uint8, origDst uint32)) {
	ic.onUnreachable = fn
}

func (ic *Layer) sendUnreachable(ctx exec.Context, dst uint32, quote []byte) error {
	msg := make([]byte, wire.ICMPHeaderLen+len(quote))
	h := wire.ICMPHeader{Type: wire.ICMPUnreachable, Code: 2}
	h.Marshal(msg)
	copy(msg[wire.ICMPHeaderLen:], quote)
	ctx.Compute(ctx.Cost().ChecksumTime(len(msg)))
	c := wire.ChecksumICMP(msg)
	msg[2], msg[3] = byte(c>>8), byte(c)
	return ic.ip.Output(ctx, wire.IPv4Header{Protocol: wire.ProtoICMP, Dst: dst}, msg)
}

// InputMailbox implements ip.Upper.
func (ic *Layer) InputMailbox() *mailbox.Mailbox { return ic.inBox }

// Ping sends an echo request carrying len(payload) bytes to dst. status
// receives 1 when the matching echo reply arrives. (RTT measurement is
// done by the caller around the sync.)
func (ic *Layer) Ping(ctx exec.Context, dst uint32, id, seq uint16, payload []byte, status *syncs.Sync) error {
	ic.waiters[uint32(id)<<16|uint32(seq)] = &pingWait{status: status}
	return ic.send(ctx, dst, wire.ICMPEcho, id, seq, payload)
}

func (ic *Layer) send(ctx exec.Context, dst uint32, typ uint8, id, seq uint16, payload []byte) error {
	msg := make([]byte, wire.ICMPHeaderLen+len(payload))
	h := wire.ICMPHeader{Type: typ, ID: id, Seq: seq}
	h.Marshal(msg)
	copy(msg[wire.ICMPHeaderLen:], payload)
	ctx.Compute(ctx.Cost().ChecksumTime(len(msg)))
	c := wire.ChecksumICMP(msg)
	msg[2], msg[3] = byte(c>>8), byte(c)
	return ic.ip.Output(ctx, wire.IPv4Header{Protocol: wire.ProtoICMP, Dst: dst}, msg)
}

// upcall processes arriving ICMP messages in the caller's (interrupt)
// context.
func (ic *Layer) upcall(t *threads.Thread, box *mailbox.Mailbox) {
	ctx := exec.OnCAB(t)
	for {
		m := box.BeginGetNB(ctx)
		if m == nil {
			return
		}
		ic.handle(ctx, m)
		box.EndGet(ctx, m)
	}
}

func (ic *Layer) handle(ctx exec.Context, m *mailbox.Msg) {
	data := m.Data()
	var iph wire.IPv4Header
	if iph.Unmarshal(data) != nil || len(data) < wire.IPv4HeaderLen+wire.ICMPHeaderLen {
		return
	}
	body := data[wire.IPv4HeaderLen:]
	ctx.Compute(ctx.Cost().ChecksumTime(len(body)))
	if !wire.VerifyChecksum(body) {
		return
	}
	var h wire.ICMPHeader
	_ = h.Unmarshal(body)
	switch h.Type {
	case wire.ICMPEcho:
		ic.echoes++
		_ = ic.send(ctx, iph.Src, wire.ICMPEchoReply, h.ID, h.Seq, body[wire.ICMPHeaderLen:])
	case wire.ICMPEchoReply:
		ic.replies++
		key := uint32(h.ID)<<16 | uint32(h.Seq)
		if w, ok := ic.waiters[key]; ok {
			delete(ic.waiters, key)
			if w.status != nil {
				w.status.Write(ctx, 1)
			}
		}
	case wire.ICMPUnreachable:
		ic.unreachRecv++
		quote := body[wire.ICMPHeaderLen:]
		var orig wire.IPv4Header
		if orig.Unmarshal(quote) == nil && ic.onUnreachable != nil {
			ic.onUnreachable(orig.Protocol, orig.Dst)
		}
	}
}

// Stats returns (echo requests served, echo replies received,
// unreachables sent, unreachables received).
func (ic *Layer) Stats() (echoes, replies, unreachSent, unreachRecv uint64) {
	return ic.echoes, ic.replies, ic.unreachSent, ic.unreachRecv
}
