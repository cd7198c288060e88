// Package netdev implements the paper's network-device usage level
// (§5.1): the CAB is treated as a conventional network interface, and IP
// and higher protocols run on the host as usual. The device driver and a
// server thread on the CAB share a pool of buffers: to send a packet, the
// driver writes it into a free output buffer and notifies the server,
// which transmits it over Nectar; arriving packets are received into free
// input buffers and the driver is informed.
//
// The advantage of this level is binary compatibility; the price — paid
// in the paper's Figure 8 comparison (6.4 Mbit/s vs 24-28 Mbit/s for the
// protocol-engine level) — is per-packet host stack execution and a VME
// copy for every 1500-byte packet instead of one mapped write per
// message. The host-resident BSD stack is represented by its calibrated
// per-packet CPU cost (HostStackPerPacket); the driver, buffer pool,
// doorbells and frames are real.
package netdev

import (
	"nectar/internal/proto/datalink"
	"nectar/internal/proto/wire"
	"nectar/internal/rt/exec"
	"nectar/internal/rt/mailbox"
	"nectar/internal/rt/threads"
)

// MTU is the interface MTU presented to the host stack, Ethernet-style
// (the level exists for binary compatibility with the familiar network
// services, so it inherits conventional packet sizes).
const MTU = 1500

// Driver is the host-side network-interface driver plus its CAB-side
// server thread.
type Driver struct {
	dl *datalink.Layer

	outPool *mailbox.Mailbox // host -> CAB: packets to transmit
	inPool  *mailbox.Mailbox // CAB -> host: received packets

	txPackets, rxPackets uint64
}

// meta on an output packet: destination node.
type txMeta struct{ dst wire.NodeID }

// New installs the network-device level on a node. It coexists with the
// CAB-resident stacks (its frames use a dedicated datalink type).
func New(dl *datalink.Layer, rt *mailbox.Runtime) *Driver {
	d := &Driver{
		dl:      dl,
		outPool: rt.Create("netdev.out"),
		inPool:  rt.Create("netdev.in"),
	}
	d.outPool.SetCapacity(64 << 10)
	d.inPool.SetCapacity(64 << 10)
	dl.Register(wire.TypeRaw, d)
	rt.CAB().Sched.Fork("netdev-server", threads.SystemPriority, d.serverThread)
	return d
}

// Output hands one packet (the raw bytes produced by the host stack) to
// the interface: the driver copies it into a free output buffer in CAB
// memory (a VME PIO copy) and notifies the CAB server.
func (d *Driver) Output(ctx exec.Context, dst wire.NodeID, pkt []byte) {
	if len(pkt) > MTU {
		panic("netdev: packet exceeds MTU")
	}
	m := d.outPool.BeginPut(ctx, len(pkt))
	m.Write(ctx, 0, pkt) // the per-packet VME crossing
	m.Meta = &txMeta{dst: dst}
	d.outPool.EndPut(ctx, m)
}

// Input returns the next received packet, copied out of the input pool
// (the second VME crossing), blocking until one arrives.
func (d *Driver) Input(ctx exec.Context) []byte {
	m := d.inPool.BeginGetPoll(ctx)
	out := make([]byte, m.Len())
	m.Read(ctx, 0, out)
	d.inPool.EndGet(ctx, m)
	return out
}

// serverThread is the CAB-side server of §5.1, transmitting and receiving
// packets over Nectar on the driver's behalf.
func (d *Driver) serverThread(t *threads.Thread) {
	ctx := exec.OnCAB(t)
	for {
		m := d.outPool.BeginGet(ctx)
		if meta, ok := m.Meta.(*txMeta); ok {
			d.txPackets++
			_ = d.dl.Send(ctx, wire.TypeRaw, meta.dst, m.Data())
		}
		d.outPool.EndGet(ctx, m)
	}
}

// --- datalink.Protocol ---

// InputMailbox implements datalink.Protocol.
func (d *Driver) InputMailbox() *mailbox.Mailbox { return d.inPool }

// StartOfData implements datalink.Protocol.
func (d *Driver) StartOfData(t *threads.Thread, src wire.NodeID, hdr []byte) bool {
	return true
}

// EndOfData implements datalink.Protocol: the packet is already in an
// input-pool buffer; publish it and inform the driver.
func (d *Driver) EndOfData(t *threads.Thread, src wire.NodeID, m *mailbox.Msg) {
	ctx := exec.OnCAB(t)
	d.rxPackets++
	m.From = wire.MailboxAddr{Node: src}
	d.inPool.EndPut(ctx, m)
}

// Stats returns (packets transmitted, packets received).
func (d *Driver) Stats() (tx, rx uint64) { return d.txPackets, d.rxPackets }

// HostStack bundles the modeled host-resident protocol stack: per-packet
// CPU charges around real driver operations.
type HostStack struct {
	drv *Driver
}

// NewHostStack wraps a driver.
func NewHostStack(d *Driver) *HostStack { return &HostStack{drv: d} }

// SendStream pushes total bytes to dst through the host stack in
// MTU-sized packets, charging the stack's per-packet cost.
func (s *HostStack) SendStream(ctx exec.Context, dst wire.NodeID, total int) {
	buf := make([]byte, MTU)
	for sent := 0; sent < total; {
		n := total - sent
		if n > MTU {
			n = MTU
		}
		ctx.Compute(ctx.Cost().HostStackPerPacket)
		s.drv.Output(ctx, dst, buf[:n])
		sent += n
	}
}

// RecvStream consumes total bytes from the interface through the host
// stack.
func (s *HostStack) RecvStream(ctx exec.Context, total int) {
	for got := 0; got < total; {
		pkt := s.drv.Input(ctx)
		ctx.Compute(ctx.Cost().HostStackPerPacket)
		got += len(pkt)
	}
}
