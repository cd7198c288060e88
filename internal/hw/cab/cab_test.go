package cab

import (
	"bytes"
	"testing"

	"nectar/internal/hw/fiber"
	"nectar/internal/hw/hub"
	"nectar/internal/model"
	"nectar/internal/proto/wire"
	"nectar/internal/rt/threads"
	"nectar/internal/sim"
)

func wired(t *testing.T) (*sim.Kernel, *CAB, *CAB) {
	t.Helper()
	k := sim.NewKernel()
	cost := model.Default1990()
	h := hub.New(k, cost, "hub", hub.DefaultPorts)
	a := NewSized(k, cost, 1, 0)
	b := NewSized(k, cost, 2, 0)
	a.ConnectFiber(fiber.NewLink(k, cost, "a->h", h.InPort(0)))
	h.ConnectOut(0, fiber.NewLink(k, cost, "h->a", a))
	b.ConnectFiber(fiber.NewLink(k, cost, "b->h", h.InPort(1)))
	h.ConnectOut(1, fiber.NewLink(k, cost, "h->b", b))
	a.SetRoute(2, []byte{1})
	b.SetRoute(1, []byte{0})
	return k, a, b
}

func TestTransmitReceiveFrame(t *testing.T) {
	k, a, b := wired(t)
	payload := []byte("frame-payload")
	var gotHdr wire.DatalinkHeader
	var gotPayload []byte
	var crcOK bool
	b.OnReceive(func(th *threads.Thread, d *RxDesc) {
		_ = gotHdr.Unmarshal(d.Frame)
		b.StartRxDMA(d, make([]byte, len(d.Payload())), func(ok bool) {
			crcOK = ok
			gotPayload = append([]byte(nil), d.Payload()...)
		})
	})
	k.After(0, func() {
		if err := a.Transmit(2, wire.DatalinkHeader{Type: wire.TypeDatagram}, false, payload); err != nil {
			k.Fatalf("transmit: %v", err)
		}
	})
	if err := k.RunFor(5 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !crcOK {
		t.Error("CRC failed on clean frame")
	}
	if !bytes.Equal(gotPayload, payload) {
		t.Errorf("payload = %q", gotPayload)
	}
	if gotHdr.Src != 1 || gotHdr.Dst != 2 || gotHdr.Type != wire.TypeDatagram {
		t.Errorf("header = %+v", gotHdr)
	}
	if int(gotHdr.Len) != len(payload) {
		t.Errorf("len = %d", gotHdr.Len)
	}
}

func TestGatherTransmit(t *testing.T) {
	// Multiple payload spans are concatenated by the "DMA engine".
	k, a, b := wired(t)
	var got []byte
	b.OnReceive(func(th *threads.Thread, d *RxDesc) {
		got = append([]byte(nil), d.Payload()...)
	})
	k.After(0, func() {
		_ = a.Transmit(2, wire.DatalinkHeader{Type: 1}, false, []byte("aa"), []byte("bb"), []byte("cc"))
	})
	if err := k.RunFor(sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if string(got) != "aabbcc" {
		t.Errorf("got %q", got)
	}
}

func TestCRCDetectsWireCorruption(t *testing.T) {
	k, a, b := wired(t)
	a.OutLink().CorruptNext(1)
	var ok = true
	b.OnReceive(func(th *threads.Thread, d *RxDesc) {
		b.StartRxDMA(d, make([]byte, len(d.Payload())), func(o bool) { ok = o })
	})
	k.After(0, func() {
		_ = a.Transmit(2, wire.DatalinkHeader{Type: 1}, false, []byte("to-be-mangled"))
	})
	if err := k.RunFor(sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("hardware CRC accepted a corrupted frame")
	}
	if b.crcErrors != 1 {
		t.Errorf("crcErr = %d", b.crcErrors)
	}
}

func TestNoRouteTransmitFails(t *testing.T) {
	k, a, _ := wired(t)
	errs := 0
	k.After(0, func() {
		if err := a.Transmit(42, wire.DatalinkHeader{Type: 1}, false, []byte("x")); err != nil {
			errs++
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if errs != 1 {
		t.Error("transmit to unrouted node did not error")
	}
}

func TestOversizePayloadRejected(t *testing.T) {
	k, a, _ := wired(t)
	errs := 0
	k.After(0, func() {
		if err := a.Transmit(2, wire.DatalinkHeader{Type: 1}, false, make([]byte, wire.MaxPayload+1)); err != nil {
			errs++
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if errs != 1 {
		t.Error("oversize payload accepted")
	}
}

func TestDoorbellInterrupts(t *testing.T) {
	k, a, _ := wired(t)
	rang := false
	a.OnHostDoorbell(func(th *threads.Thread) { rang = true })
	hostIntr := false
	a.SetHostInterrupt(func() { hostIntr = true })
	k.After(0, func() {
		a.RingFromHost()
		a.InterruptHost()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !rang || !hostIntr {
		t.Errorf("doorbells: cab=%v host=%v", rang, hostIntr)
	}
}

func TestStartOfPacketTimingCoversHeader(t *testing.T) {
	// The start-of-packet interrupt fires once the datalink header has
	// arrived — i.e. ~(1+8 bytes)/12.5MBps = 720ns after first byte.
	k, a, b := wired(t)
	var sopAt sim.Time
	b.OnReceive(func(th *threads.Thread, d *RxDesc) {
		if sopAt == 0 {
			sopAt = k.Now()
		}
	})
	k.After(0, func() {
		_ = a.Transmit(2, wire.DatalinkHeader{Type: 1}, false, make([]byte, 1000))
	})
	if err := k.RunFor(sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	first := sim.Time(700) // hub setup: first byte at 700ns
	headerTime := sim.Time(model.Default1990().FiberTime(1 + wire.DatalinkHeaderLen))
	want := first + headerTime
	// Interrupt dispatch adds scheduler entry time; the handler must not
	// run before the header has physically arrived.
	if sopAt < want {
		t.Errorf("start-of-packet handler at %v, before header arrival %v", sopAt, want)
	}
}

func TestRxDMAUndersizedBufferReleasesDesc(t *testing.T) {
	// Regression: the undersized-buffer bail-out in StartRxDMA reported
	// through Fatalf — which records the failure and returns — and then
	// dropped the descriptor on the floor, stranding it (and its frame)
	// instead of returning it to the CAB's free list.
	k := sim.NewKernel()
	c := NewSized(k, model.Default1990(), 1, 0)
	d := c.getDesc()
	d.Frame = make([]byte, wire.DatalinkHeaderLen+8+wire.CRCLen) // 8-byte payload
	c.StartRxDMA(d, make([]byte, 4), func(ok bool) {
		t.Error("done callback ran for an undersized buffer")
	})
	if n := c.descFree.Len(); n != 1 {
		t.Errorf("descFree.Len() = %d, want 1: the bail-out path must release the descriptor", n)
	}
	if err := k.Run(); err == nil {
		t.Error("Run returned nil, want the recorded undersized-buffer failure")
	}
}
