// Package obs is the cluster-wide observability layer: typed trace
// events and spans, a per-node metrics registry, and a wire-capture tap,
// all on virtual time.
//
// The package sits below every hardware and runtime model (it imports
// only internal/sim, internal/proto/wire and internal/prof, a stdlib-only
// leaf whose log2 histogram backs Histogram), and is wired to a kernel
// through the kernel's opaque observer slot: Ensure(k) installs (or
// returns) the kernel's Observer, and every layer that wants to emit
// events or register metrics calls it at construction time.
//
// Cost discipline: obs never charges virtual time (no Compute/Words
// calls), so enabling any part of it cannot change simulation results.
// With no trace sink and no capture installed, the event and capture
// paths reduce to a nil check and the metric paths to plain integer
// arithmetic — no allocations on the fast path.
package obs

import (
	"fmt"

	"nectar/internal/sim"
)

// Layer identifies the hardware or protocol layer an event or metric
// belongs to. The constants follow the repo's package names.
type Layer string

// Layers instrumented across the cluster.
const (
	LayerSched    Layer = "sched"    // thread scheduler (context switches, interrupts)
	LayerMailbox  Layer = "mailbox"  // mailbox put/get phases
	LayerHostIF   Layer = "hostif"   // host<->CAB doorbells and ISRs
	LayerVME      Layer = "vme"      // VME bus PIO/DMA
	LayerFiber    Layer = "fiber"    // fiber links and HUB
	LayerCAB      Layer = "cab"      // CAB tx/rx DMA engines
	LayerDatalink Layer = "datalink" // datalink framing/dispatch
	LayerIP       Layer = "ip"       // IP (incl. fragmentation/reassembly)
	LayerTCP      Layer = "tcp"
	LayerUDP      Layer = "udp"
	LayerDatagram Layer = "datagram" // Nectar datagram transport
	LayerRMP      Layer = "rmp"      // Nectar reliable message protocol
	LayerRRP      Layer = "rrp"      // Nectar request-response protocol
)

// Kind distinguishes instantaneous events from span boundaries.
type Kind uint8

const (
	// Instant is a point event.
	Instant Kind = iota
	// Begin opens a span; the matching End event carries the same Span id.
	Begin
	// End closes a span.
	End
)

func (k Kind) String() string {
	switch k {
	case Instant:
		return "instant"
	case Begin:
		return "begin"
	case End:
		return "end"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// SpanID identifies a span within one Observer. 0 means "no span".
type SpanID uint64

// Event is one typed trace record. All times are virtual.
type Event struct {
	At     sim.Time // virtual time the event fired
	Node   int      // node id, 0 when the emitting layer is not node-scoped
	Layer  Layer
	Kind   Kind
	Name   string // stage name, e.g. "doorbell", "dl.tx", "rto"
	Arg    string // optional qualifier (mailbox name, link name, ...)
	Span   SpanID // span this event opens/closes, 0 for plain instants
	Parent SpanID // causal parent span, 0 if none
	Seq    uint64 // packet/segment/transaction identity when known
	Bytes  int    // payload size when known
}

// String renders the event as one trace line.
func (e Event) String() string {
	s := fmt.Sprintf("%10.3fus n%d %-8s %-7s %s", e.At.Micros(), e.Node, e.Layer, e.Kind, e.Name)
	if e.Arg != "" {
		s += " " + e.Arg
	}
	if e.Seq != 0 {
		s += fmt.Sprintf(" seq=%d", e.Seq)
	}
	if e.Bytes != 0 {
		s += fmt.Sprintf(" len=%d", e.Bytes)
	}
	if e.Span != 0 {
		s += fmt.Sprintf(" span=%d", e.Span)
	}
	if e.Parent != 0 {
		s += fmt.Sprintf(" parent=%d", e.Parent)
	}
	return s
}

// Sink consumes trace events as they are emitted. Implementations must
// not call back into the simulation.
type Sink interface {
	Event(Event)
}

// Recorder is a Sink that appends every event to a slice.
type Recorder struct {
	Events []Event
}

// Event implements Sink.
func (r *Recorder) Event(e Event) { r.Events = append(r.Events, e) }
