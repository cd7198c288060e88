// Package ether models the 10 Mbit/s Ethernet baseline of paper §6.3: the
// hosts' on-board interfaces bypass the VME bus, which is why Ethernet
// (7.2 Mbit/s) beats the CAB-as-network-device level (6.4 Mbit/s) despite
// a 10x slower wire. The medium is a shared segment with per-frame
// serialization; protocol processing runs on the host CPU at the
// host-stack per-packet cost.
package ether

import (
	"nectar/internal/hw/host"
	"nectar/internal/model"
	"nectar/internal/rt/exec"
	"nectar/internal/rt/threads"
	"nectar/internal/sim"
)

// MTU is the Ethernet payload MTU.
const MTU = 1500

// frameOverhead is preamble+header+CRC+gap, charged on the wire.
const frameOverhead = 38

// Segment is one shared Ethernet segment.
type Segment struct {
	k      *sim.Kernel
	cost   *model.CostModel
	freeAt sim.Time
	ifaces []*Iface

	frames, bytes uint64
}

// NewSegment creates an Ethernet segment.
func NewSegment(k *sim.Kernel, cost *model.CostModel) *Segment {
	return &Segment{k: k, cost: cost}
}

// Iface is a host's on-board Ethernet interface.
type Iface struct {
	seg  *Segment
	host *host.Host
	addr int
	rx   func(t *threads.Thread, n int) // receive handler, interrupt context
}

// Attach adds a host to the segment and returns its interface.
func (s *Segment) Attach(h *host.Host) *Iface {
	i := &Iface{seg: s, host: h, addr: len(s.ifaces)}
	s.ifaces = append(s.ifaces, i)
	return i
}

// OnReceive registers the interface's receive handler (runs as a host
// interrupt per arriving frame).
func (i *Iface) OnReceive(fn func(t *threads.Thread, n int)) { i.rx = fn }

// Addr returns the interface's segment address.
func (i *Iface) Addr() int { return i.addr }

// Send transmits an n-byte payload frame to dst. The caller is charged
// the on-board driver cost; the frame then serializes on the shared
// medium and raises a receive interrupt at the destination host.
func (i *Iface) Send(ctx exec.Context, dst int, n int) {
	if n > MTU {
		panic("ether: frame exceeds MTU")
	}
	s := i.seg
	ctx.Compute(s.cost.EtherDriverPerPacket)
	start := s.k.Now()
	if s.freeAt > start {
		start = s.freeAt // carrier sense: wait for the medium
	}
	dur := s.cost.EtherTime(n + frameOverhead)
	end := start + sim.Time(dur)
	s.freeAt = end
	s.frames++
	s.bytes += uint64(n)
	target := s.ifaces[dst]
	s.k.At(end, func() {
		if target.rx != nil {
			target.host.Sched.RaiseInterrupt("ether-rx", func(t *threads.Thread) {
				t.Compute(s.cost.EtherDriverPerPacket / 2)
				target.rx(t, n)
			})
		}
	})
}

// Stats returns (frames, payload bytes) carried by the segment.
//
//nectar:api the Ethernet baseline's frame and byte counts, which its tests read; no gauge publishes them
func (s *Segment) Stats() (frames, bytes uint64) { return s.frames, s.bytes }
