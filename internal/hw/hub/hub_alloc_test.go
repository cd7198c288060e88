package hub

import (
	"testing"

	"nectar/internal/hw/fiber"
	"nectar/internal/model"
	"nectar/internal/sim"
)

// TestRouteConsumptionAliasesSharedTable pins the zero-copy contract the
// shared route table depends on: a crossbar consumes a route byte by
// re-slicing pkt.Route, never by copying it, so a packet can carry a
// reference into the cluster-wide deduplicated table all the way across
// the fabric. If forwarding ever copied, 100k nodes would silently pay a
// per-packet route allocation again.
func TestRouteConsumptionAliasesSharedTable(t *testing.T) {
	k := sim.NewKernel()
	cost := model.Default1990()
	h0 := New(k, cost, "hub0", DefaultPorts)
	h1 := New(k, cost, "hub1", DefaultPorts)
	sink := &capture{k: k}
	h0.ConnectOut(2, fiber.NewLink(k, cost, "h0->h1", h1.InPort(0)))
	h1.ConnectOut(3, fiber.NewLink(k, cost, "h1->sink", sink))
	up := fiber.NewLink(k, cost, "cab->h0", h0.InPort(5))

	shared := []byte{2, 3, 7} // as served by the route table; 7 is unconsumed
	pkt := packet(shared, frame(50))
	k.After(0, func() { up.Send(pkt) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(sink.arrived) != 1 {
		t.Fatalf("arrived = %d", len(sink.arrived))
	}
	got := sink.arrived[0].pkt.Route
	if len(got) != 1 || got[0] != 7 {
		t.Fatalf("remaining route = % x, want [07]", got)
	}
	if &got[0] != &shared[2] {
		t.Error("route bytes were copied: remaining route does not alias the shared table slice")
	}
}

// TestForwardingAllocations is the hot-path allocation guard for the
// crossbar: forwarding a packet through two HUBs allocates nothing. Each
// hop (the deferred retransmit at arrival+setup, and the fiber delivery
// event) schedules one of the callbacks GetPacket built with the packet;
// route consumption, port lookup, circuit checks and stats are all
// alloc-free. A regression here multiplies across every hop of every
// frame on a 65k-node fabric.
func TestForwardingAllocations(t *testing.T) {
	k := sim.NewKernel()
	cost := model.Default1990()
	h0 := New(k, cost, "hub0", DefaultPorts)
	h1 := New(k, cost, "hub1", DefaultPorts)
	sink := &capture{k: k}
	h0.ConnectOut(2, fiber.NewLink(k, cost, "h0->h1", h1.InPort(0)))
	h1.ConnectOut(3, fiber.NewLink(k, cost, "h1->sink", sink))
	up := fiber.NewLink(k, cost, "cab->h0", h0.InPort(5))

	shared := []byte{2, 3}
	pkt := packet(nil, frame(50))
	avg := testing.AllocsPerRun(200, func() {
		pkt.Route = shared // re-arm the shared route; must not be copied
		up.Send(pkt)
		if err := k.Run(); err != nil {
			panic(err)
		}
		sink.arrived = sink.arrived[:0]
	})
	if avg != 0 {
		t.Errorf("2-hop forward allocates %.1f objects/run, want 0", avg)
	}
}

// TestRegistrationAllocations pins the cost of building a fabric: on a
// warm registry, fiber.NewLink allocates only its Link, and New only the
// HUB slab of one, its port table and the slab's registration. Input
// ports are entries of the port table, so connecting all 16 of them
// allocates nothing more. A link's and a HUB's gauges are their own
// fields, read at snapshot time, so registering them allocates nothing
// per metric.
func TestRegistrationAllocations(t *testing.T) {
	k := sim.NewKernel()
	cost := model.Default1990()
	dst := &capture{k: k}
	// Install the kernel's observer and grow its registry's source list,
	// so the runs below measure registration, not first use.
	for i := 0; i < 1024; i++ {
		fiber.NewLink(k, cost, "warm", dst)
	}
	if avg := testing.AllocsPerRun(100, func() { fiber.NewLink(k, cost, "link", dst) }); avg != 1 {
		t.Errorf("fiber.NewLink allocates %.1f objects, want 1 (the Link)", avg)
	}
	dom := sim.NewCoupling().AddDomain(k)
	if avg := testing.AllocsPerRun(100, func() {
		h := New(k, cost, "hub", DefaultPorts)
		for p := 0; p < DefaultPorts; p++ {
			h.InPortOn(p, dom)
		}
	}); avg != 3 {
		t.Errorf("hub.New with 16 input ports connected allocates %.1f objects, want 3 (the slab, its port table, its registration)", avg)
	}
}
