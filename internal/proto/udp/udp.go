// Package udp implements UDP on the CAB. Per paper §4.1, UDP has its own
// server thread: the thread blocks on the UDP input mailbox, verifies the
// checksum, strips the headers in place, and enqueues the payload to the
// bound port's socket mailbox with no copying.
package udp

import (
	"fmt"

	"nectar/internal/obs"
	"nectar/internal/proto/ip"
	"nectar/internal/proto/wire"
	"nectar/internal/rt/exec"
	"nectar/internal/rt/mailbox"
	"nectar/internal/rt/threads"
)

// Layer is the UDP instance on one CAB.
type Layer struct {
	ip      *ip.Layer
	inBox   *mailbox.Mailbox
	sendBox *mailbox.Mailbox // host send requests (like TCP's, §4.2)
	ports   map[uint16]*Socket

	delivered, badChecksum, noPort uint64

	obs  *obs.Observer
	node int
}

// udpSendMeta routes a host send request to its socket.
type udpSendMeta struct {
	sock    *Socket
	dstIP   uint32
	dstPort uint16
}

// Socket is a bound UDP port; arriving datagrams land in its mailbox.
type Socket struct {
	layer *Layer
	port  uint16
	Box   *mailbox.Mailbox
}

// NewLayer installs UDP on an IP layer and starts its server thread.
func NewLayer(l *ip.Layer, rt *mailbox.Runtime) *Layer {
	u := &Layer{
		ip:      l,
		inBox:   rt.Create("udp.in"),
		sendBox: rt.Create("udp.sendreq"),
		ports:   make(map[uint16]*Socket),
	}
	l.Register(wire.ProtoUDP, u)
	u.inBox.Serve("udp-input", threads.SystemPriority, u.handle)
	u.sendBox.Serve("udp-send", threads.SystemPriority, u.send)
	u.node = int(rt.CAB().Node())
	u.obs = obs.Ensure(rt.CAB().Kernel())
	u.obs.Metrics().Register(u)
	return u
}

// Gauges reports the datagrams delivered and dropped (obs.Source).
func (u *Layer) Gauges(emit func(layer obs.Layer, name, scope string, v uint64)) {
	scope := u.ip.Runtime().CAB().Scope()
	emit(obs.LayerUDP, "delivered", scope, u.delivered)
	emit(obs.LayerUDP, "bad_checksum", scope, u.badChecksum)
	emit(obs.LayerUDP, "no_port", scope, u.noPort)
}

// send transmits a host-submitted datagram on the CAB: the send
// thread's handler.
func (u *Layer) send(ctx exec.Context, m *mailbox.Msg) {
	if meta, ok := m.Meta.(*udpSendMeta); ok {
		_ = meta.sock.SendTo(ctx, meta.dstIP, meta.dstPort, m.Data())
	}
	u.sendBox.EndGet(ctx, m)
}

// InputMailbox implements ip.Upper.
func (u *Layer) InputMailbox() *mailbox.Mailbox { return u.inBox }

// Bind claims a UDP port and returns its socket.
func (u *Layer) Bind(port uint16) (*Socket, error) {
	if _, taken := u.ports[port]; taken {
		return nil, fmt.Errorf("udp: port %d in use", port)
	}
	s := &Socket{
		layer: u,
		port:  port,
		Box:   u.ip.Runtime().Create(fmt.Sprintf("udp.port%d", port)),
	}
	u.ports[port] = s
	return s, nil
}

// SendTo transmits a datagram from this socket. The UDP checksum is
// computed in software over the real bytes (and charged at the CAB's
// software checksum rate).
func (s *Socket) SendTo(ctx exec.Context, dstIP uint32, dstPort uint16, data []byte) error {
	u := s.layer
	if ctx.IsHost() {
		// Host processes submit through the send-request mailbox; the
		// CAB's UDP send thread transmits (the data crosses the VME bus
		// exactly once, into the request buffer).
		m := u.sendBox.BeginPut(ctx, len(data))
		m.Write(ctx, 0, data)
		m.Meta = &udpSendMeta{sock: s, dstIP: dstIP, dstPort: dstPort}
		u.sendBox.EndPut(ctx, m)
		return nil
	}
	ctx.Compute(ctx.Cost().UDPProcess)
	dg := make([]byte, wire.UDPHeaderLen+len(data))
	h := wire.UDPHeader{SrcPort: s.port, DstPort: dstPort, Len: uint16(len(dg))}
	h.Marshal(dg)
	copy(dg[wire.UDPHeaderLen:], data)
	ctx.Compute(ctx.Cost().ChecksumTime(len(dg)))
	c := wire.ChecksumUDP(u.ip.Addr(), dstIP, dg)
	dg[6], dg[7] = byte(c>>8), byte(c)
	return u.ip.Output(ctx, wire.IPv4Header{Protocol: wire.ProtoUDP, Dst: dstIP}, dg)
}

// Recv blocks until a datagram arrives on this socket and returns its
// message (payload only; the source is in Msg.From-style metadata: the
// source IP's node in From.Node and the source port in Tag). Callers
// release it with Done.
func (s *Socket) Recv(ctx exec.Context) *mailbox.Msg {
	return s.Box.BeginGet(ctx)
}

// RecvPoll is Recv with the polling wait (host fast path).
func (s *Socket) RecvPoll(ctx exec.Context) *mailbox.Msg {
	return s.Box.BeginGetPoll(ctx)
}

// Done releases a received datagram's buffer.
func (s *Socket) Done(ctx exec.Context, m *mailbox.Msg) {
	s.Box.EndGet(ctx, m)
}

// handle processes one datagram: the handler of the paper's UDP server
// thread.
func (u *Layer) handle(ctx exec.Context, m *mailbox.Msg) {
	ctx.Compute(ctx.Cost().UDPProcess)
	data := m.Data()
	var iph wire.IPv4Header
	if iph.Unmarshal(data) != nil || len(data) < wire.IPv4HeaderLen+wire.UDPHeaderLen {
		u.inBox.EndGet(ctx, m)
		return
	}
	dg := data[wire.IPv4HeaderLen:]
	var h wire.UDPHeader
	_ = h.Unmarshal(dg)
	if h.Checksum != 0 {
		ctx.Compute(ctx.Cost().ChecksumTime(len(dg)))
		want := wire.ChecksumUDP(iph.Src, iph.Dst, dg)
		if want != h.Checksum {
			u.badChecksum++
			u.inBox.EndGet(ctx, m)
			return
		}
	}
	s, ok := u.ports[h.DstPort]
	if !ok {
		u.noPort++
		u.inBox.EndGet(ctx, m)
		return
	}
	// Strip IP+UDP headers in place and hand the payload to the socket.
	m.TrimPrefix(ctx, wire.IPv4HeaderLen+wire.UDPHeaderLen)
	if node, ok := wire.IPNode(iph.Src); ok {
		m.From = wire.MailboxAddr{Node: node}
	}
	m.Tag = uint32(h.SrcPort)
	u.delivered++
	if u.obs.Tracing() {
		u.obs.InstantSeq(u.node, obs.LayerUDP, "deliver", uint64(h.DstPort), m.Len())
	}
	u.inBox.Enqueue(ctx, m, s.Box)
}
