package fiber

import "nectar/internal/pool"

// Pool recycles Packet structs and frame buffers on the fast path
// (CAB Transmit → fiber → HUB → CAB receive DMA). A Fig 7/8 sweep pushes
// hundreds of thousands of frames through the wire path; without reuse each
// one is a fresh Packet plus a fresh frame slice, and the GC dominates the
// sweep's wall clock.
//
// A packet carries its pending hop. Each packet in flight has exactly one
// event outstanding (its arrival at the far end of a link, or its next
// HUB hop), so the packet holds that step's state and GetPacket builds the
// two callbacks that run it once, when it creates the packet. Every hop
// after that schedules a prebuilt callback and allocates nothing; the
// per-hop closure each hop used to capture was most of a frame's garbage.
//
// The pool is single-threaded by construction: all gets and releases happen
// inside one simulation kernel, which only ever runs one goroutine at a
// time, so there are no locks. Releasing is a pure optimization — a path
// that drops a packet without releasing it merely falls back to GC behavior
// — but a release must only happen when the frame is provably dead (after
// the receive DMA has copied it out, or on a drop). The terminal points
// are:
//
//   - Link.SendAt's fault-injection drop path,
//   - the datalink layer's pre-DMA drop paths (bad header, unknown type,
//     no buffer space, start-of-data veto), and
//   - CAB.StartRxDMA completion, after the CRC check and payload copy.
type Pool struct {
	frames  pool.FreeList[[]byte]
	packets pool.FreeList[*Packet]

	// Stats: hits (reuses) vs misses (fresh allocations).
	frameHits, frameMisses uint64
	pktHits, pktMisses     uint64
}

// GetFrame returns a frame buffer of length n, reusing pooled storage when
// its capacity suffices. Contents are undefined; callers overwrite every
// byte (header, payload, CRC trailer). The make on the miss path is the
// pool filling itself: in steady state the hit path is allocation-free.
//
//nectar:hotpath
func (p *Pool) GetFrame(n int) []byte {
	if p != nil {
		if f, ok := p.frames.Peek(); ok && cap(f) >= n {
			p.frames.Get() //nectar:leak-ok the popped slot is f, already in hand from the preceding Peek
			p.frameHits++
			return f[:n]
		}
		// Empty, or the top frame is too small for this send: leave it
		// for a smaller one.
		p.frameMisses++
	}
	return make([]byte, n)
}

// GetPacket returns a Packet owned by this pool; Release returns it. It is
// the only way to make a Packet: a nil pool returns a GC-managed one. The
// miss path builds the packet's step callbacks, once per packet.
//
//nectar:hotpath
func (p *Pool) GetPacket() *Packet {
	if p != nil {
		if pkt, ok := p.packets.Get(); ok {
			p.pktHits++
			return pkt
		}
		p.pktMisses++
	}
	return p.newPacket()
}

// newPacket is GetPacket's miss path: a packet owned by p, with its step
// callbacks built once for its lifetime.
//
//nectar:hotpath-exempt pool miss: the callbacks built here run later as their own events, never inside GetPacket
func (p *Pool) newPacket() *Packet {
	pkt := &Packet{pool: p}
	pkt.arriveFn = pkt.arrive
	pkt.hopFn = pkt.hop
	return pkt
}

// Release returns pkt and its frame to the pool. It must be called exactly
// once, only when no reference to pkt or pkt.Frame survives. Safe to call
// on packets built without a pool (no-op beyond clearing).
//
//nectar:hotpath
func (pkt *Packet) Release() {
	p := pkt.pool
	if p == nil {
		return
	}
	if pkt.Frame != nil {
		p.frames.Put(pkt.Frame)
	}
	pkt.Frame = nil
	pkt.Route = nil
	pkt.Circuit = false
	pkt.via, pkt.out = nil, nil
	p.packets.Put(pkt)
}

// Stats reports (frame reuses, frame allocations, packet reuses, packet
// allocations).
func (p *Pool) Stats() (frameHits, frameMisses, pktHits, pktMisses uint64) {
	if p == nil {
		return
	}
	return p.frameHits, p.frameMisses, p.pktHits, p.pktMisses
}
