package obs

import "nectar/internal/sim"

// Observer is the per-kernel observability hub: it owns the metrics
// registry, the optional trace sink, and the optional wire capture.
// All methods are nil-receiver tolerant so layers can emit
// unconditionally; with no sink installed emission is a nil check.
type Observer struct {
	k   *sim.Kernel
	reg *Registry
	// The trace sink and wire capture record events in virtual-time
	// order for one kernel; under PDES sharding each domain has its own
	// (merged deterministically at the end of the run), so they are
	// per-shard state.
	sink     Sink     //nectar:shard-owned
	cap      *Capture //nectar:shard-owned
	nextSpan uint64
}

// Ensure returns the kernel's Observer, installing a fresh one on first
// call. Every layer constructor calls this, so components built outside a
// full cluster (unit tests) still get working metrics.
func Ensure(k *sim.Kernel) *Observer {
	if o, ok := k.Observer().(*Observer); ok {
		return o
	}
	o := &Observer{k: k, reg: NewRegistry()}
	k.SetObserver(o)
	return o
}

// Metrics returns the observer's registry (nil-tolerant).
func (o *Observer) Metrics() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// SetSink installs (or removes, with nil) the trace sink.
func (o *Observer) SetSink(s Sink) {
	if o != nil {
		o.sink = s
	}
}

// Tracing reports whether a trace sink is installed. Call sites use it to
// skip argument construction for expensive events.
func (o *Observer) Tracing() bool { return o != nil && o.sink != nil }

// SetCapture installs (or removes, with nil) the wire-capture tap.
//
//nectar:api sharded identity helper: the determinism tests install their wire taps with it
func (o *Observer) SetCapture(c *Capture) {
	if o != nil {
		o.cap = c
	}
}

// CaptureLog returns the installed capture, or nil.
//
//nectar:api the capture guard obsgate recognizes; a capture argument that allocates must sit under it
func (o *Observer) CaptureLog() *Capture {
	if o == nil {
		return nil
	}
	return o.cap
}

// emit delivers e to the sink, stamping the virtual time.
func (o *Observer) emit(e Event) {
	e.At = o.k.Now()
	o.sink.Event(e)
}

// Instant emits a point event.
func (o *Observer) Instant(node int, layer Layer, name string) {
	if o == nil || o.sink == nil {
		return
	}
	o.emit(Event{Node: node, Layer: layer, Kind: Instant, Name: name})
}

// InstantSeq emits a point event carrying packet identity.
func (o *Observer) InstantSeq(node int, layer Layer, name string, seq uint64, bytes int) {
	if o == nil || o.sink == nil {
		return
	}
	o.emit(Event{Node: node, Layer: layer, Kind: Instant, Name: name, Seq: seq, Bytes: bytes})
}

// InstantArg emits a point event with a qualifier string.
func (o *Observer) InstantArg(node int, layer Layer, name, arg string, seq uint64, bytes int) {
	if o == nil || o.sink == nil {
		return
	}
	o.emit(Event{Node: node, Layer: layer, Kind: Instant, Name: name, Arg: arg, Seq: seq, Bytes: bytes})
}

// BeginSeq opens a span carrying packet identity.
func (o *Observer) BeginSeq(node int, layer Layer, name string, parent SpanID, seq uint64, bytes int) SpanID {
	if o == nil || o.sink == nil {
		return 0
	}
	o.nextSpan++
	id := SpanID(o.nextSpan)
	o.emit(Event{Node: node, Layer: layer, Kind: Begin, Name: name, Span: id, Parent: parent, Seq: seq, Bytes: bytes})
	return id
}

// End closes a span opened by Begin. A zero span is ignored.
func (o *Observer) End(span SpanID, node int, layer Layer, name string) {
	if o == nil || o.sink == nil || span == 0 {
		return
	}
	o.emit(Event{Node: node, Layer: layer, Kind: End, Name: name, Span: span})
}

// CapturePacket delivers one wire frame to the capture tap, if any.
func (o *Observer) CapturePacket(link string, frame []byte, dropped, corrupted bool) {
	if o == nil || o.cap == nil {
		return
	}
	o.cap.add(o.k.Now(), link, frame, dropped, corrupted)
}
