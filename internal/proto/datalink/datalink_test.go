package datalink

import (
	"testing"

	"nectar/internal/hw/cab"
	"nectar/internal/hw/fiber"
	"nectar/internal/hw/hub"
	"nectar/internal/model"
	"nectar/internal/proto/wire"
	"nectar/internal/rt/exec"
	"nectar/internal/rt/mailbox"
	"nectar/internal/rt/threads"
	"nectar/internal/sim"
)

// rig wires two CABs through one HUB with datalink layers.
type rig struct {
	k        *sim.Kernel
	a, b     *cab.CAB
	la, lb   *Layer
	rta, rtb *mailbox.Runtime
}

func newRig(t *testing.T, rxThread bool) *rig {
	t.Helper()
	k := sim.NewKernel()
	cost := model.Default1990()
	h := hub.New(k, cost, "hub", hub.DefaultPorts)
	a := cab.NewSized(k, cost, 1, 0)
	b := cab.NewSized(k, cost, 2, 0)
	if rxThread {
		a.SetRxInterruptMode(false)
		b.SetRxInterruptMode(false)
	}
	a.ConnectFiber(fiber.NewLink(k, cost, "a->hub", h.InPort(0)))
	h.ConnectOut(0, fiber.NewLink(k, cost, "hub->a", a))
	b.ConnectFiber(fiber.NewLink(k, cost, "b->hub", h.InPort(1)))
	h.ConnectOut(1, fiber.NewLink(k, cost, "hub->b", b))
	a.SetRoute(2, []byte{1})
	b.SetRoute(1, []byte{0})
	rta := mailbox.NewRuntime(a)
	rtb := mailbox.NewRuntime(b)
	return &rig{k: k, a: a, b: b, la: NewLayer(a), lb: NewLayer(b), rta: rta, rtb: rtb}
}

// echoProto is a test protocol that records deliveries.
type echoProto struct {
	rt       *mailbox.Runtime
	in       *mailbox.Mailbox
	got      [][]byte
	srcs     []wire.NodeID
	vetoNext bool
	sodCalls int
}

func newEchoProto(rt *mailbox.Runtime) *echoProto {
	return &echoProto{rt: rt, in: rt.Create("test.in")}
}

func (p *echoProto) InputMailbox() *mailbox.Mailbox { return p.in }

func (p *echoProto) StartOfData(t *threads.Thread, src wire.NodeID, hdr []byte) bool {
	p.sodCalls++
	if p.vetoNext {
		p.vetoNext = false
		return false
	}
	return true
}

func (p *echoProto) EndOfData(t *threads.Thread, src wire.NodeID, m *mailbox.Msg) {
	ctx := exec.OnCAB(t)
	p.got = append(p.got, append([]byte(nil), m.Data()...))
	p.srcs = append(p.srcs, src)
	p.in.EndPut(ctx, m)
}

func TestSendReceive(t *testing.T) {
	r := newRig(t, false)
	p := newEchoProto(r.rtb)
	r.lb.Register(wire.TypeDatagram, p)
	r.a.Sched.Fork("tx", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		if err := r.la.Send(ctx, wire.TypeDatagram, 2, []byte("part1-"), []byte("part2")); err != nil {
			r.k.Fatalf("send: %v", err)
		}
	})
	if err := r.k.RunFor(5 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(p.got) != 1 || string(p.got[0]) != "part1-part2" {
		t.Fatalf("got %q", p.got)
	}
	if p.srcs[0] != 1 {
		t.Errorf("src = %d", p.srcs[0])
	}
	if p.sodCalls != 1 {
		t.Errorf("start-of-data calls = %d", p.sodCalls)
	}
}

func TestUnknownTypeDropped(t *testing.T) {
	r := newRig(t, false)
	r.a.Sched.Fork("tx", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		_ = r.la.Send(ctx, 0x77, 2, []byte("orphan"))
	})
	if err := r.k.RunFor(5 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	unknown := r.lb.unknownType
	if unknown != 1 {
		t.Errorf("unknownType = %d, want 1", unknown)
	}
}

func TestStartOfDataVetoDropsFrame(t *testing.T) {
	r := newRig(t, false)
	p := newEchoProto(r.rtb)
	p.vetoNext = true
	r.lb.Register(wire.TypeDatagram, p)
	r.a.Sched.Fork("tx", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		_ = r.la.Send(ctx, wire.TypeDatagram, 2, []byte("bad"))
		_ = r.la.Send(ctx, wire.TypeDatagram, 2, []byte("good"))
	})
	if err := r.k.RunFor(5 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(p.got) != 1 || string(p.got[0]) != "good" {
		t.Fatalf("got %q, want only the non-vetoed frame", p.got)
	}
	vetoed := r.lb.vetoed
	if vetoed != 1 {
		t.Errorf("vetoed = %d", vetoed)
	}
	// The vetoed frame's buffer must have been released.
	if used := r.b.Heap.Used(); used > 4096 {
		t.Errorf("heap used = %d; vetoed frame leaked", used)
	}
}

func TestCorruptedFrameDroppedByCRC(t *testing.T) {
	r := newRig(t, false)
	p := newEchoProto(r.rtb)
	r.lb.Register(wire.TypeDatagram, p)
	r.a.OutLink().CorruptNext(1)
	r.a.Sched.Fork("tx", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		_ = r.la.Send(ctx, wire.TypeDatagram, 2, []byte("mangled"))
		_ = r.la.Send(ctx, wire.TypeDatagram, 2, []byte("clean"))
	})
	if err := r.k.RunFor(5 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(p.got) != 1 || string(p.got[0]) != "clean" {
		t.Fatalf("got %q", p.got)
	}
	crcDrops := r.lb.crcDrops
	if crcDrops != 1 {
		t.Errorf("crcDrops = %d", crcDrops)
	}
}

func TestNoBufferDrop(t *testing.T) {
	r := newRig(t, false)
	p := newEchoProto(r.rtb)
	p.in.SetCapacity(64) // tiny input pool
	r.lb.Register(wire.TypeDatagram, p)
	r.a.Sched.Fork("tx", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		_ = r.la.Send(ctx, wire.TypeDatagram, 2, make([]byte, 200))
	})
	if err := r.k.RunFor(5 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(p.got) != 0 {
		t.Fatal("oversized frame delivered despite no buffer")
	}
	noBuf := r.lb.noBuffer
	if noBuf != 1 {
		t.Errorf("noBuffer = %d", noBuf)
	}
}

func TestRxThreadModeDelivers(t *testing.T) {
	// Ablation A1: the polling-thread input path must be functionally
	// identical.
	r := newRig(t, true)
	p := newEchoProto(r.rtb)
	r.lb.Register(wire.TypeDatagram, p)
	r.a.Sched.Fork("tx", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		for i := byte(0); i < 5; i++ {
			_ = r.la.Send(ctx, wire.TypeDatagram, 2, []byte{i})
			th.Sleep(50 * sim.Microsecond)
		}
	})
	if err := r.k.RunFor(20 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(p.got) != 5 {
		t.Fatalf("delivered %d of 5 in rx-thread mode", len(p.got))
	}
	for i, g := range p.got {
		if g[0] != byte(i) {
			t.Fatalf("order broken in rx-thread mode: %v", p.got)
		}
	}
	// No start-of-packet interrupts should have been taken for data
	// frames (only the queue handoff runs in kernel context).
	if got := r.b.Sched.Interrupts(); got != 0 {
		t.Errorf("interrupts = %d in rx-thread mode, want 0", got)
	}
}

func TestInterruptModeOrdering(t *testing.T) {
	// Back-to-back frames must be delivered in transmit order even when
	// interrupts queue up (regression test for the switch-window
	// interrupt reordering bug).
	r := newRig(t, false)
	p := newEchoProto(r.rtb)
	r.lb.Register(wire.TypeDatagram, p)
	const n = 50
	r.a.Sched.Fork("tx", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		for i := byte(0); i < n; i++ {
			_ = r.la.Send(ctx, wire.TypeDatagram, 2, []byte{i})
		}
	})
	if err := r.k.RunFor(50 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(p.got) != n {
		t.Fatalf("delivered %d of %d", len(p.got), n)
	}
	for i, g := range p.got {
		if g[0] != byte(i) {
			t.Fatalf("frame %d out of order (got %d)", i, g[0])
		}
	}
}

func TestNoRouteError(t *testing.T) {
	r := newRig(t, false)
	errs := 0
	r.a.Sched.Fork("tx", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		if err := r.la.Send(ctx, wire.TypeDatagram, 99, []byte("x")); err != nil {
			errs++
		}
	})
	if err := r.k.RunFor(sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if errs != 1 {
		t.Error("send to unknown node did not error")
	}
}
