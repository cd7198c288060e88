package hub

import (
	"testing"

	"nectar/internal/hw/fiber"
	"nectar/internal/model"
	"nectar/internal/obs"
	"nectar/internal/sim"
)

type capture struct {
	k       *sim.Kernel
	arrived []arrival
}

type arrival struct {
	pkt   *fiber.Packet
	first sim.Time
	end   sim.Time
}

func (c *capture) PacketArriving(pkt *fiber.Packet, end sim.Time) {
	c.arrived = append(c.arrived, arrival{pkt, c.k.Now(), end})
}

// packet makes a GC-managed packet carrying route and frame.
func packet(route, frame []byte) *fiber.Packet {
	pkt := (*fiber.Pool)(nil).GetPacket()
	pkt.Route, pkt.Frame = route, frame
	return pkt
}

func frame(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)
	}
	return b
}

func TestLinkSerializationTime(t *testing.T) {
	k := sim.NewKernel()
	cost := model.Default1990()
	sink := &capture{k: k}
	l := fiber.NewLink(k, cost, "l", sink)
	pkt := packet(nil, frame(999)) // wire len 1000 with route byte
	k.After(0, func() { l.Send(pkt) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(sink.arrived) != 1 {
		t.Fatalf("arrived = %d", len(sink.arrived))
	}
	a := sink.arrived[0]
	if a.first != 0 {
		t.Errorf("first byte at %v, want 0", a.first)
	}
	// 1000 bytes at 12.5 MB/s = 80us.
	if want := sim.Time(80 * sim.Microsecond); a.end != want {
		t.Errorf("last byte at %v, want %v", a.end, want)
	}
}

func TestLinkQueueing(t *testing.T) {
	k := sim.NewKernel()
	cost := model.Default1990()
	sink := &capture{k: k}
	l := fiber.NewLink(k, cost, "l", sink)
	k.After(0, func() {
		l.Send(packet(nil, frame(999))) // occupies [0,80us]
		l.Send(packet(nil, frame(999))) // must start at 80us
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(sink.arrived) != 2 {
		t.Fatalf("arrived = %d", len(sink.arrived))
	}
	if want := sim.Time(80 * sim.Microsecond); sink.arrived[1].first != want {
		t.Errorf("second packet first byte at %v, want %v", sink.arrived[1].first, want)
	}
	if want := sim.Time(160 * sim.Microsecond); sink.arrived[1].end != want {
		t.Errorf("second packet last byte at %v, want %v", sink.arrived[1].end, want)
	}
}

func TestLinkDropAndCorrupt(t *testing.T) {
	k := sim.NewKernel()
	cost := model.Default1990()
	sink := &capture{k: k}
	l := fiber.NewLink(k, cost, "l", sink)
	l.DropNext(1)
	l.CorruptNext(2) // applies to the two packets after the drop
	k.After(0, func() {
		for i := 0; i < 3; i++ {
			l.Send(packet(nil, frame(100)))
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(sink.arrived) != 2 {
		t.Fatalf("arrived = %d, want 2 (one dropped)", len(sink.arrived))
	}
	orig := frame(100)
	for _, a := range sink.arrived {
		same := true
		for i := range orig {
			if a.pkt.Frame[i] != orig[i] {
				same = false
			}
		}
		if same {
			t.Error("packet not corrupted")
		}
	}
	snap := obs.MergeSnapshots(k.Now(), obs.Ensure(k).Metrics())
	sent := snap.Value(obs.LayerFiber, "frames", "l")
	dropped := snap.Value(obs.LayerFiber, "dropped", "l")
	corrupted := snap.Value(obs.LayerFiber, "corrupted", "l")
	if sent != 2 || dropped != 1 || corrupted != 2 {
		t.Errorf("stats = %d/%d/%d, want 2/1/2", sent, dropped, corrupted)
	}
}

// buildStar wires cab0 -> hub port0, hub port1 -> sink (i.e. one hop).
func buildStar(t *testing.T) (*sim.Kernel, *fiber.Link, *capture) {
	k := sim.NewKernel()
	cost := model.Default1990()
	h := New(k, cost, "hub0", DefaultPorts)
	sink := &capture{k: k}
	h.ConnectOut(1, fiber.NewLink(k, cost, "hub0.1->sink", sink))
	up := fiber.NewLink(k, cost, "cab0->hub0.0", h.InPort(0))
	return k, up, sink
}

func TestHubSetupLatency(t *testing.T) {
	// E6 anchor: 700 ns to set up a connection and transfer the first
	// byte through a single HUB.
	k, up, sink := buildStar(t)
	pkt := packet([]byte{1}, frame(99)) // wire len 101 upstream
	k.After(0, func() { up.Send(pkt) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(sink.arrived) != 1 {
		t.Fatalf("arrived = %d", len(sink.arrived))
	}
	if want := sim.Time(700 * sim.Nanosecond); sink.arrived[0].first != want {
		t.Errorf("first byte after HUB at %v, want %v", sink.arrived[0].first, want)
	}
	if len(sink.arrived[0].pkt.Route) != 0 {
		t.Error("route byte not consumed")
	}
}

func TestHubCutThroughOverlap(t *testing.T) {
	// The outgoing transmission must overlap the incoming one: for an
	// 8KB frame, end-to-end ~= setup + serialization, NOT 2x serialization.
	k, up, sink := buildStar(t)
	n := 8192
	pkt := packet([]byte{1}, frame(n))
	k.After(0, func() { up.Send(pkt) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	cost := model.Default1990()
	ser := sim.Time(cost.FiberTime(n + 1)) // downstream wire length
	end := sink.arrived[0].end
	if end > sim.Time(700)+ser+sim.Time(2*sim.Microsecond) {
		t.Errorf("delivery end %v suggests store-and-forward (serialization %v)", end, ser)
	}
}

func TestMultiHopRoute(t *testing.T) {
	// cab -> hub0 port 2 -> hub1 port 3 -> sink: two setup delays.
	k := sim.NewKernel()
	cost := model.Default1990()
	h0 := New(k, cost, "hub0", DefaultPorts)
	h1 := New(k, cost, "hub1", DefaultPorts)
	sink := &capture{k: k}
	h0.ConnectOut(2, fiber.NewLink(k, cost, "h0->h1", h1.InPort(0)))
	h1.ConnectOut(3, fiber.NewLink(k, cost, "h1->sink", sink))
	up := fiber.NewLink(k, cost, "cab->h0", h0.InPort(5))
	pkt := packet([]byte{2, 3}, frame(50))
	k.After(0, func() { up.Send(pkt) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(sink.arrived) != 1 {
		t.Fatalf("arrived = %d", len(sink.arrived))
	}
	if want := sim.Time(1400 * sim.Nanosecond); sink.arrived[0].first != want {
		t.Errorf("first byte at %v, want %v (2 hops x 700ns)", sink.arrived[0].first, want)
	}
	if h0.Forwarded() != 1 || h1.Forwarded() != 1 {
		t.Error("forward counters wrong")
	}
}

func TestExhaustedRouteFails(t *testing.T) {
	k, up, _ := buildStar(t)
	k.After(0, func() { up.Send(packet(nil, frame(10))) }) // no route
	if err := k.Run(); err == nil {
		t.Error("exhausted route did not fail the simulation")
	}
}

func TestUnconnectedPortFails(t *testing.T) {
	k, up, _ := buildStar(t)
	k.After(0, func() { up.Send(packet([]byte{9}, frame(10))) })
	if err := k.Run(); err == nil {
		t.Error("unconnected port did not fail the simulation")
	}
}

func TestOutputPortContention(t *testing.T) {
	// Two inputs racing for one output: second packet serializes after
	// the first (flow control holds it back).
	k := sim.NewKernel()
	cost := model.Default1990()
	h := New(k, cost, "hub", DefaultPorts)
	sink := &capture{k: k}
	h.ConnectOut(0, fiber.NewLink(k, cost, "out", sink))
	inA := fiber.NewLink(k, cost, "a", h.InPort(1))
	inB := fiber.NewLink(k, cost, "b", h.InPort(2))
	k.After(0, func() {
		inA.Send(packet([]byte{0}, frame(999)))
		inB.Send(packet([]byte{0}, frame(999)))
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(sink.arrived) != 2 {
		t.Fatalf("arrived = %d", len(sink.arrived))
	}
	// Packet B's first byte must wait for A to drain the output fiber.
	if sink.arrived[1].first < sink.arrived[0].end {
		t.Errorf("second packet started %v, before first finished %v",
			sink.arrived[1].first, sink.arrived[0].end)
	}
}

func TestCircuitSwitching(t *testing.T) {
	k, up, sink := buildStar(t)
	var h *Hub
	// Rebuild to get access to the hub: buildStar hides it, so make our own.
	k = sim.NewKernel()
	cost := model.Default1990()
	h = New(k, cost, "hub", DefaultPorts)
	sink = &capture{k: k}
	h.ConnectOut(1, fiber.NewLink(k, cost, "out", sink))
	up = fiber.NewLink(k, cost, "in", h.InPort(0))

	if err := h.OpenCircuit(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := h.OpenCircuit(3, 1); err == nil {
		t.Error("double circuit reservation succeeded")
	}
	pkt := packet([]byte{1}, frame(99))
	pkt.Circuit = true
	k.After(0, func() { up.Send(pkt) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(sink.arrived) != 1 {
		t.Fatalf("arrived = %d", len(sink.arrived))
	}
	if sink.arrived[0].first != 0 {
		t.Errorf("circuit packet first byte at %v, want 0 (no setup)", sink.arrived[0].first)
	}
}

func TestPacketIntoReservedPortFails(t *testing.T) {
	k := sim.NewKernel()
	cost := model.Default1990()
	h := New(k, cost, "hub", DefaultPorts)
	sink := &capture{k: k}
	h.ConnectOut(1, fiber.NewLink(k, cost, "out", sink))
	up := fiber.NewLink(k, cost, "in", h.InPort(0))
	if err := h.OpenCircuit(2, 1); err != nil {
		t.Fatal(err)
	}
	k.After(0, func() {
		up.Send(packet([]byte{1}, frame(10)))
	})
	if err := k.Run(); err == nil {
		t.Error("packet-switched frame into reserved port did not fail")
	}
}

func TestMisrouteReleasesPacket(t *testing.T) {
	// Regression: misroute reported through Fatalf — which records the
	// failure and returns — and then leaked the packet instead of
	// returning it to its pool.
	k := sim.NewKernel()
	h := New(k, model.Default1990(), "hub", 2)
	var p fiber.Pool
	pkt := p.GetPacket()
	pkt.Frame = frame(16)
	pkt.Route = nil // exhausted route: every arrival is a misroute
	h.InPort(0).PacketArriving(pkt, 0)
	if pkt.Frame != nil {
		t.Error("misroute kept the frame attached; packet was not released")
	}
	if again := p.GetPacket(); again != pkt {
		t.Error("packet was not returned to its pool by misroute")
	}
	if err := k.Run(); err == nil {
		t.Error("Run returned nil, want the recorded misroute failure")
	}
}
