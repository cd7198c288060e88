package obs

import (
	"bytes"
	"testing"

	"nectar/internal/sim"
)

// testGauge is a Source reporting one fixed gauge.
type testGauge struct {
	layer       Layer
	name, scope string
	v           uint64
}

func (g *testGauge) Gauges(emit func(layer Layer, name, scope string, v uint64)) {
	emit(g.layer, g.name, g.scope, g.v)
}

// TestDisabledEmissionAllocatesNothing pins the package's core promise:
// with no sink installed, every emission path is a nil check and every
// metric update is plain arithmetic — zero allocations.
func TestDisabledEmissionAllocatesNothing(t *testing.T) {
	o := Ensure(sim.NewKernel())
	if o.Tracing() {
		t.Fatal("fresh observer reports tracing enabled")
	}
	c := o.Metrics().Counter(LayerTCP, "segs_out", "cab1")
	h := o.Metrics().Histogram(LayerTCP, "ack_rtt", "cab1")

	allocs := testing.AllocsPerRun(1000, func() {
		o.Instant(1, LayerDatagram, "send")
		o.InstantSeq(1, LayerTCP, "tx", 7, 128)
		o.InstantArg(1, LayerMailbox, "get", "dg.send", 0, 0)
		sp := o.BeginSeq(1, LayerCAB, "rx", 0, 7, 128)
		o.End(sp, 1, LayerCAB, "rx")
		o.CapturePacket("fiber.a-b", nil, false, false)
		c.Inc()
		h.Observe(42 * sim.Microsecond)
	})
	if allocs != 0 {
		t.Fatalf("disabled observability allocated %.1f times per op, want 0", allocs)
	}
}

// TestNilReceiversAreNoOps verifies that a nil observer, counter, and
// histogram are all safe to use, so layers built without a kernel still
// work.
func TestNilReceiversAreNoOps(t *testing.T) {
	var o *Observer
	o.Instant(1, LayerIP, "x")
	o.End(o.BeginSeq(1, LayerIP, "x", 0, 0, 0), 1, LayerIP, "x")
	if o.Tracing() {
		t.Fatal("nil observer reports tracing")
	}
	if o.Metrics() != nil {
		t.Fatal("nil observer returned a registry")
	}
	var r *Registry
	c := r.Counter(LayerIP, "x", "cab1")
	c.Inc()
	if c != nil {
		t.Fatal("nil registry returned a counter")
	}
	h := r.Histogram(LayerIP, "x", "cab1")
	h.Observe(sim.Millisecond)
	r.Register(&testGauge{LayerIP, "x", "cab1", 1})
	if got := MergeSnapshots(0, r); len(got.Entries) != 0 {
		t.Fatalf("nil registry snapshot has %d entries", len(got.Entries))
	}
}

// TestSnapshotDeterministic verifies that two snapshots of the same
// registry state serialize byte-identically, regardless of map iteration
// order.
func TestSnapshotDeterministic(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		for _, scope := range []string{"cab2", "cab1", "total"} {
			add(r.Counter(LayerTCP, "segs_out", scope), 5)
			add(r.Counter(LayerFiber, "bytes", scope), 1024)
			r.Register(&testGauge{LayerRMP, "sent", scope, 9})
			r.Histogram(LayerVME, "dma", scope).Observe(3 * sim.Microsecond)
		}
		return r
	}
	a := MergeSnapshots(1000, build()).JSON()
	b := MergeSnapshots(1000, build()).JSON()
	if !bytes.Equal(a, b) {
		t.Fatalf("two identical registries snapshot differently:\n%s\n---\n%s", a, b)
	}
}

// TestSpanIDsAreSequential verifies that Begin hands out fresh ids only
// while a sink is installed, so disabled runs never burn span numbers.
func TestSpanIDsAreSequential(t *testing.T) {
	o := Ensure(sim.NewKernel())
	if id := o.BeginSeq(1, LayerCAB, "x", 0, 0, 0); id != 0 {
		t.Fatalf("Begin with no sink returned span %d, want 0", id)
	}
	rec := &Recorder{}
	o.SetSink(rec)
	a := o.BeginSeq(1, LayerCAB, "x", 0, 0, 0)
	b := o.BeginSeq(1, LayerCAB, "y", a, 0, 0)
	if a == 0 || b != a+1 {
		t.Fatalf("span ids %d, %d not sequential", a, b)
	}
	o.End(b, 1, LayerCAB, "y")
	o.End(a, 1, LayerCAB, "x")
	if len(rec.Events) != 4 {
		t.Fatalf("recorded %d events, want 4", len(rec.Events))
	}
	if rec.Events[1].Parent != a {
		t.Fatalf("child span parent = %d, want %d", rec.Events[1].Parent, a)
	}
}

// BenchmarkDisabledEmit is the acceptance benchmark: observability with
// no sink installed must add no allocations on the fast path.
func BenchmarkDisabledEmit(b *testing.B) {
	o := Ensure(sim.NewKernel())
	c := o.Metrics().Counter(LayerDatagram, "sent", "cab1")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.InstantSeq(1, LayerDatagram, "send", uint64(i), 64)
		c.Inc()
	}
}

// BenchmarkHistogramObserve measures the metric hot path (always on).
func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram(LayerTCP, "ack_rtt", "cab1")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(sim.Duration(i))
	}
}

// add counts n on c, as n calls of Inc would.
func add(c *Counter, n uint64) { c.v += n }
