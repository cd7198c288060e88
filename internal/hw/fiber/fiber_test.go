package fiber

import (
	"testing"
	"unsafe"

	"nectar/internal/model"
	"nectar/internal/sim"
)

type sink struct {
	k   *sim.Kernel
	got []*Packet
}

func (s *sink) PacketArriving(p *Packet, end sim.Time) { s.got = append(s.got, p) }

// packet makes a GC-managed packet carrying route and frame.
func packet(route, frame []byte) *Packet {
	pkt := (*Pool)(nil).GetPacket()
	pkt.Route, pkt.Frame = route, frame
	return pkt
}

func TestWireLen(t *testing.T) {
	p := packet([]byte{1, 2}, make([]byte, 100))
	if p.WireLen() != 103 { // route-length byte + 2 route bytes + frame
		t.Errorf("WireLen = %d, want 103", p.WireLen())
	}
}

func TestFaultFnPattern(t *testing.T) {
	k := sim.NewKernel()
	s := &sink{k: k}
	l := NewLink(k, model.Default1990(), "l", s)
	l.SetFaultFn(func(seq uint64) (bool, bool) {
		return seq%2 == 0, false // drop every even packet
	})
	k.After(0, func() {
		for i := 0; i < 6; i++ {
			l.Send(packet(nil, make([]byte, 10)))
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(s.got) != 3 {
		t.Errorf("delivered %d of 6, want 3", len(s.got))
	}
	if l.sent != 3 || l.dropped != 3 {
		t.Errorf("stats sent=%d dropped=%d", l.sent, l.dropped)
	}
	l.SetFaultFn(nil)
	k.After(0, func() { l.Send(packet(nil, make([]byte, 10))) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(s.got) != 4 {
		t.Error("cleared fault fn still dropping")
	}
}

func TestBusyAndFreeAt(t *testing.T) {
	k := sim.NewKernel()
	s := &sink{k: k}
	l := NewLink(k, model.Default1990(), "l", s)
	k.After(0, func() {
		l.Send(packet(nil, make([]byte, 1249))) // 1250 wire bytes = 100us
		if l.freeAt <= k.Now() {
			k.Fatalf("link not busy during transmission")
		}
		if l.freeAt != sim.Time(100*sim.Microsecond) {
			k.Fatalf("freeAt = %v", l.freeAt)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestEarliestOutputZeroAlloc pins the hot-path contract of the safe-bound
// computation: the per-window choose phase calls EarliestOutputTo once per
// (gateway, destination) pair per fixpoint pass, so a single allocation
// there multiplies into the scheduler's critical path.
func TestEarliestOutputZeroAlloc(t *testing.T) {
	k := sim.NewKernel()
	l := NewLink(k, model.Default1990(), "gw", newForwarder(k, 2))
	g := new(Gateway)
	g.Init(l, func(actFloor sim.Time) sim.Time { return actFloor + 12000 }, nil)
	// Populate the in-flight frames so the destination scan runs.
	k.After(0, func() {
		for i := 0; i < 4; i++ {
			l.Send(packet([]byte{byte(i)}, make([]byte, 64)))
		}
		var sum sim.Time
		if avg := testing.AllocsPerRun(100, func() {
			sum += g.EarliestOutputTo(1, k.Now())
			sum += g.EarliestOutputTo(0, sim.MaxTime)
		}); avg != 0 {
			k.Fatalf("safe-bound computation allocates: %.1f allocs/run", avg)
		}
		if sum == 0 {
			k.Fatalf("bound computation returned zero")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNilDestinationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil destination accepted")
		}
	}()
	NewLink(sim.NewKernel(), model.Default1990(), "l", nil)
}

// TestLinkSizeIsLineMultiple keeps a Link two 64-byte cache lines, so the
// elements of a Links slab each start a line. An unpadded 184-byte Link
// made the fabric workload's run phase slower; a field added to Link must
// shrink the padding, and one that outgrows it costs every trunk of a
// fabric a third line, so this pins the size itself.
func TestLinkSizeIsLineMultiple(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the padding is sized for 64-bit platforms")
	}
	if n := unsafe.Sizeof(Link{}); n != 128 {
		t.Errorf("fiber.Link is %d bytes, want 128", n)
	}
}
