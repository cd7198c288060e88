// Package ip implements the Internet Protocol on the CAB as described in
// paper §4.1: input processing is performed at interrupt time; the
// datalink layer DMAs arriving packets into the IP input mailbox; the
// start-of-data upcall sanity-checks the IP header (including the real
// header checksum) while the rest of the packet streams in; the
// end-of-data upcall queues fragments for reassembly and transfers
// complete datagrams to the input mailbox of the appropriate higher-level
// protocol with the copy-free Enqueue operation.
//
// The send interface is the paper's IP_Output: higher protocols pass a
// header template with a partially filled-in IP header plus references to
// the data they wish to send; IP fills in the remaining fields and calls
// the datalink layer, gathering the spans without copying.
package ip

import (
	"fmt"

	"nectar/internal/obs"
	"nectar/internal/pool"
	"nectar/internal/proto/datalink"
	"nectar/internal/proto/wire"
	"nectar/internal/rt/exec"
	"nectar/internal/rt/mailbox"
	"nectar/internal/rt/threads"
	"nectar/internal/sim"
)

// DefaultMTU is the IP MTU over the Nectar datalink. The fiber frame
// carries up to wire.MaxPayload, so the MTU is large — IP on Nectar does
// not fragment the paper's 8 KB experiment messages. Tests lower it with
// SetMTU to exercise fragmentation and reassembly.
const DefaultMTU = wire.MaxPayload

// ReassemblyTimeout discards incomplete fragment sets (RFC 791 suggests
// 15-120 s; the low-latency LAN uses the low end).
const ReassemblyTimeout = 15 * sim.Second

// DefaultTTL is the initial time-to-live of locally originated datagrams.
const DefaultTTL = 30

// Upper is a protocol above IP. Complete datagrams (IP header included,
// options-free) are enqueued to its input mailbox; Msg.Tag is unused here.
// An upper may instead attach a mailbox upcall to its input mailbox, as
// the paper's ICMP does (§4.1).
type Upper interface {
	InputMailbox() *mailbox.Mailbox
}

// Layer is the IP instance on one CAB.
type Layer struct {
	dl    *datalink.Layer
	rt    *mailbox.Runtime
	inBox *mailbox.Mailbox
	mtu   int

	uppers      map[uint8]Upper
	reasm       map[reasmKey]*reasmState
	nextID      uint16
	unreachable func(ctx exec.Context, h wire.IPv4Header, datagram []byte)

	// Stats.
	inDelivers, inFragments, reassembled, reasmTimeouts uint64
	badHeader, badChecksum, noProto, ttlExceeded        uint64
	outPackets, outFragments                            uint64

	// Per-send scratch recycling: header marshal buffers are dead as
	// soon as dl.Send returns (the CAB copies spans into the frame
	// synchronously), so Output reuses them instead of allocating per
	// packet. A free list rather than a single buffer because Compute
	// yields virtual time, so several sends can be in flight on one CAB.
	hdrFree pool.FreeList[[]byte]

	obs  *obs.Observer
	node int
}

type reasmKey struct {
	src, dst uint32
	id       uint16
	proto    uint8
}

type reasmState struct {
	frags []*mailbox.Msg // each holds a full IP packet (header + partial payload)
	timer sim.Timer
}

// NewLayer installs IP on a CAB and registers it with the datalink layer.
func NewLayer(dl *datalink.Layer, rt *mailbox.Runtime) *Layer {
	l := &Layer{
		dl:     dl,
		rt:     rt,
		inBox:  rt.Create("ip.in"),
		mtu:    DefaultMTU,
		uppers: make(map[uint8]Upper),
		reasm:  make(map[reasmKey]*reasmState),
	}
	dl.Register(wire.TypeIP, l)
	l.node = int(rt.CAB().Node())
	l.obs = obs.Ensure(rt.CAB().Kernel())
	l.obs.Metrics().Register(l)
	return l
}

// Gauges reports the layer's input, output and error counts (obs.Source).
func (l *Layer) Gauges(emit func(layer obs.Layer, name, scope string, v uint64)) {
	scope := l.rt.CAB().Scope()
	emit(obs.LayerIP, "in_delivers", scope, l.inDelivers)
	emit(obs.LayerIP, "in_fragments", scope, l.inFragments)
	emit(obs.LayerIP, "reassembled", scope, l.reassembled)
	emit(obs.LayerIP, "reasm_timeouts", scope, l.reasmTimeouts)
	emit(obs.LayerIP, "bad_header", scope, l.badHeader)
	emit(obs.LayerIP, "bad_checksum", scope, l.badChecksum)
	emit(obs.LayerIP, "no_proto", scope, l.noProto)
	emit(obs.LayerIP, "out_packets", scope, l.outPackets)
	emit(obs.LayerIP, "out_fragments", scope, l.outFragments)
}

// Register binds an upper protocol to an IP protocol number.
func (l *Layer) Register(proto uint8, u Upper) { l.uppers[proto] = u }

// OnUnreachable registers the hook invoked when a datagram arrives for an
// unbound protocol number (ICMP uses it to send destination-unreachable).
func (l *Layer) OnUnreachable(fn func(ctx exec.Context, h wire.IPv4Header, datagram []byte)) {
	l.unreachable = fn
}

// SetMTU overrides the MTU (tests use this to force fragmentation).
//
//nectar:api the fragmentation tests force small datagrams with it; a cluster's MTU is the fiber frame's
func (l *Layer) SetMTU(mtu int) {
	if mtu < wire.IPv4HeaderLen+8 {
		panic("ip: MTU too small")
	}
	l.mtu = mtu
}

// Addr returns this node's IP address.
func (l *Layer) Addr() uint32 { return wire.NodeIP(l.rt.CAB().Node()) }

// Runtime returns the mailbox runtime (for upper layers).
func (l *Layer) Runtime() *mailbox.Runtime { return l.rt }

// Output is the paper's IP_Output: tpl is a header template with
// Protocol, Src (0 = this node) and Dst filled in by the caller; IP fills
// in the remaining fields (length, ID, TTL, checksum), fragments if
// needed, and hands the frame(s) to the datalink layer. The payload spans
// are gathered without copying, into a span list on Output's stack:
// nothing keeps a payload span once Output returns, so a caller's buffer
// does not escape to the heap by being sent.
func (l *Layer) Output(ctx exec.Context, tpl wire.IPv4Header, payload ...[]byte) error {
	cost := ctx.Cost()
	ctx.Compute(cost.IPOutput)
	if tpl.Src == 0 {
		tpl.Src = l.Addr()
	}
	if tpl.TTL == 0 {
		tpl.TTL = DefaultTTL
	}
	node, ok := wire.IPNode(tpl.Dst)
	if !ok {
		return fmt.Errorf("ip: %s is not on the Nectar network", wire.FormatIP(tpl.Dst))
	}
	if len(payload) >= gatherSpans {
		sim.Panicf("ip: Output of %d payload spans, at most %d", len(payload), gatherSpans-1)
	}
	n := 0
	for _, p := range payload {
		n += len(p)
	}
	l.nextID++
	tpl.ID = l.nextID

	if wire.IPv4HeaderLen+n <= l.mtu {
		tpl.TotalLen = uint16(wire.IPv4HeaderLen + n)
		tpl.Flags &= uint16(wire.IPFlagDF) // clear MF, offset
		tpl.FragOff = 0
		hdr := l.getHdr()
		ctx.Compute(cost.IPHeaderChecksum)
		tpl.Marshal(hdr)
		l.outPackets++
		if l.obs.Tracing() {
			l.obs.InstantSeq(l.node, obs.LayerIP, "output", uint64(tpl.ID), n)
		}
		spans, k := gatherRange([gatherSpans][]byte{hdr}, 1, payload, 0, n)
		err := l.dl.Send(ctx, wire.TypeIP, node, spans[:k]...)
		l.putHdr(hdr)
		return err
	}

	// Fragmentation: split the payload into MTU-sized pieces on 8-byte
	// boundaries (RFC 791).
	if tpl.Flags&uint16(wire.IPFlagDF) != 0 {
		return fmt.Errorf("ip: datagram of %d bytes needs fragmentation but DF is set", n)
	}
	maxData := (l.mtu - wire.IPv4HeaderLen) &^ 7
	for off := 0; off < n; off += maxData {
		end := off + maxData
		last := false
		if end >= n {
			end = n
			last = true
		}
		fh := tpl
		fh.TotalLen = uint16(wire.IPv4HeaderLen + end - off)
		fh.FragOff = uint16(off / 8)
		if !last {
			fh.Flags = uint16(wire.IPFlagMF)
		} else {
			fh.Flags = 0
		}
		hdr := l.getHdr()
		ctx.Compute(cost.IPHeaderChecksum)
		fh.Marshal(hdr)
		l.outPackets++
		l.outFragments++
		if l.obs.Tracing() {
			l.obs.InstantSeq(l.node, obs.LayerIP, "output.frag", uint64(tpl.ID), end-off)
		}
		spans, k := gatherRange([gatherSpans][]byte{hdr}, 1, payload, off, end-off)
		err := l.dl.Send(ctx, wire.TypeIP, node, spans[:k]...)
		l.putHdr(hdr)
		if err != nil {
			return err
		}
	}
	return nil
}

// getHdr returns a header marshal buffer from the free list.
func (l *Layer) getHdr() []byte {
	if h, ok := l.hdrFree.Get(); ok {
		return h
	}
	return make([]byte, wire.IPv4HeaderLen)
}

// putHdr returns a header marshal buffer to the free list.
//
//nectar:takes-ownership h pooled immediately
func (l *Layer) putHdr(h []byte) { l.hdrFree.Put(h) }

// gatherSpans is how many spans Output gathers on its stack: the IP
// header and up to three payload spans (TCP and UDP pass two).
const gatherSpans = 4

// gatherRange stores the sub-spans of payload covering [off, off+n) in
// out from out[k] on and returns out and the count of spans in it. out
// is an array passed and returned by value, so the spans Output gathers
// stay on its stack and a payload span it sends does not escape to the
// heap.
func gatherRange(out [gatherSpans][]byte, k int, payload [][]byte, off, n int) ([gatherSpans][]byte, int) {
	for _, p := range payload {
		if n == 0 {
			break
		}
		if off >= len(p) {
			off -= len(p)
			continue
		}
		take := len(p) - off
		if take > n {
			take = n
		}
		out[k] = p[off : off+take]
		k++
		off = 0
		n -= take
	}
	return out, k
}

// --- datalink.Protocol ---

// InputMailbox implements datalink.Protocol.
func (l *Layer) InputMailbox() *mailbox.Mailbox { return l.inBox }

// StartOfData implements datalink.Protocol: the paper's IP uses this
// upcall "to perform a sanity check of the IP header (including
// computation of the IP header checksum)" while the remainder of the
// packet is being received.
func (l *Layer) StartOfData(t *threads.Thread, src wire.NodeID, hdr []byte) bool {
	cost := t.Cost()
	t.Compute(cost.IPInput / 2)
	if len(hdr) < wire.IPv4HeaderLen {
		l.badHeader++
		return false
	}
	var h wire.IPv4Header
	if err := h.Unmarshal(hdr); err != nil {
		l.badHeader++
		return false
	}
	t.Compute(cost.IPHeaderChecksum)
	if !wire.VerifyChecksum(hdr[:wire.IPv4HeaderLen]) {
		l.badChecksum++
		return false
	}
	if int(h.TotalLen) != len(hdr) {
		l.badHeader++
		return false
	}
	return true
}

// EndOfData implements datalink.Protocol: queue fragments for reassembly;
// transfer complete datagrams to the appropriate higher protocol's input
// mailbox using Enqueue, "so no data is copied".
func (l *Layer) EndOfData(t *threads.Thread, src wire.NodeID, m *mailbox.Msg) {
	ctx := exec.OnCAB(t)
	t.Compute(t.Cost().IPInput / 2)
	var h wire.IPv4Header
	if err := h.Unmarshal(m.Data()); err != nil {
		l.badHeader++
		l.inBox.AbortPut(ctx, m)
		return
	}
	if h.Flags&uint16(wire.IPFlagMF) != 0 || h.FragOff != 0 {
		l.inFragments++
		if l.obs.Tracing() {
			l.obs.InstantSeq(l.node, obs.LayerIP, "frag.in", uint64(h.ID), m.Len())
		}
		l.addFragment(ctx, h, m)
		return
	}
	l.deliver(ctx, h, m)
}

// deliver hands a complete datagram (IP header included) to its protocol.
func (l *Layer) deliver(ctx exec.Context, h wire.IPv4Header, m *mailbox.Msg) {
	u, ok := l.uppers[h.Protocol]
	if !ok {
		l.noProto++
		if l.unreachable != nil {
			l.unreachable(ctx, h, m.Data())
		}
		l.inBox.AbortPut(ctx, m)
		return
	}
	l.inDelivers++
	if l.obs.Tracing() {
		l.obs.InstantSeq(l.node, obs.LayerIP, "deliver", uint64(h.ID), m.Len())
	}
	owner := l.boxOf(m)
	owner.Enqueue(ctx, m, u.InputMailbox())
}

// boxOf returns the mailbox whose reservation currently holds m. All IP
// input messages are reserved in the IP input mailbox.
func (l *Layer) boxOf(*mailbox.Msg) *mailbox.Mailbox { return l.inBox }

// addFragment stores one fragment and reassembles when complete.
func (l *Layer) addFragment(ctx exec.Context, h wire.IPv4Header, m *mailbox.Msg) {
	key := reasmKey{src: h.Src, dst: h.Dst, id: h.ID, proto: h.Protocol}
	st, ok := l.reasm[key]
	if !ok {
		st = &reasmState{}
		l.reasm[key] = st
		k := l.rt.CAB().Kernel()
		st.timer = k.After(ReassemblyTimeout, func() {
			l.rt.CAB().Sched.RaiseInterrupt("ip-reasm-timeout", func(t *threads.Thread) {
				l.expire(exec.OnCAB(t), key)
			})
		})
	}
	st.frags = append(st.frags, m)

	// Completeness check: do the fragments tile [0, total) with a final
	// MF=0 fragment present?
	total := -1
	covered := 0
	for _, fm := range st.frags {
		var fh wire.IPv4Header
		_ = fh.Unmarshal(fm.Data())
		dataLen := int(fh.TotalLen) - wire.IPv4HeaderLen
		covered += dataLen
		if fh.Flags&uint16(wire.IPFlagMF) == 0 {
			total = int(fh.FragOff)*8 + dataLen
		}
	}
	if total < 0 || covered < total {
		return
	}
	l.reassemble(ctx, key, st, h, total)
}

// reassemble builds the complete datagram in a fresh buffer and delivers
// it. (The real stack chains buffers; a contiguous copy is charged at the
// CAB's memory-copy rate — reassembly is off the paper's fast path.)
func (l *Layer) reassemble(ctx exec.Context, key reasmKey, st *reasmState, last wire.IPv4Header, total int) {
	st.timer.Stop()
	delete(l.reasm, key)

	full := l.inBox.BeginPutNB(ctx, wire.IPv4HeaderLen+total)
	if full == nil {
		// No buffer: drop the whole set.
		for _, fm := range st.frags {
			l.inBox.AbortPut(ctx, fm)
		}
		return
	}
	seen := make([]bool, total) // duplicate-range guard
	for _, fm := range st.frags {
		var fh wire.IPv4Header
		_ = fh.Unmarshal(fm.Data())
		off := int(fh.FragOff) * 8
		data := fm.Data()[wire.IPv4HeaderLen:]
		ctx.Compute(ctx.Cost().MemCopyTime(len(data)))
		copy(full.Data()[wire.IPv4HeaderLen+off:], data)
		for i := off; i < off+len(data) && i < total; i++ {
			seen[i] = true
		}
		l.inBox.AbortPut(ctx, fm)
	}
	for _, s := range seen {
		if !s {
			// Holes despite the length check (overlapping duplicates):
			// drop the reassembly.
			l.inBox.AbortPut(ctx, full)
			return
		}
	}
	// Rebuild the header: no fragment fields, full length.
	h := last
	h.Flags = 0
	h.FragOff = 0
	h.TotalLen = uint16(wire.IPv4HeaderLen + total)
	h.Marshal(full.Data()[:wire.IPv4HeaderLen])
	l.reassembled++
	if l.obs.Tracing() {
		l.obs.InstantSeq(l.node, obs.LayerIP, "reassembled", uint64(h.ID), total)
	}
	l.deliver(ctx, h, full)
}

// expire discards an incomplete fragment set.
func (l *Layer) expire(ctx exec.Context, key reasmKey) {
	st, ok := l.reasm[key]
	if !ok {
		return
	}
	delete(l.reasm, key)
	l.reasmTimeouts++
	for _, fm := range st.frags {
		l.inBox.AbortPut(ctx, fm)
	}
}
