package icmp

import (
	"testing"

	"nectar/internal/hw/cab"
	"nectar/internal/hw/fiber"
	"nectar/internal/hw/hub"
	"nectar/internal/model"
	"nectar/internal/proto/datalink"
	"nectar/internal/proto/ip"
	"nectar/internal/proto/wire"
	"nectar/internal/rt/exec"
	"nectar/internal/rt/mailbox"
	"nectar/internal/rt/threads"
	"nectar/internal/sim"
)

type node struct {
	cab  *cab.CAB
	ip   *ip.Layer
	icmp *Layer
}

func twoNodes(t *testing.T) (*sim.Kernel, *node, *node) {
	t.Helper()
	k := sim.NewKernel()
	cost := model.Default1990()
	h := hub.New(k, cost, "hub", hub.DefaultPorts)
	mk := func(id wire.NodeID, port int) *node {
		c := cab.NewSized(k, cost, id, 0)
		c.ConnectFiber(fiber.NewLink(k, cost, "up", h.InPort(port)))
		h.ConnectOut(port, fiber.NewLink(k, cost, "down", c))
		rt := mailbox.NewRuntime(c)
		dl := datalink.NewLayer(c)
		l := ip.NewLayer(dl, rt)
		return &node{cab: c, ip: l, icmp: NewLayer(l)}
	}
	a := mk(1, 0)
	b := mk(2, 1)
	a.cab.SetRoute(2, []byte{1})
	b.cab.SetRoute(1, []byte{0})
	return k, a, b
}

func TestEchoWithPayload(t *testing.T) {
	k, a, b := twoNodes(t)
	// A sync stand-in: the ping status is checked via stats because this
	// minimal rig has no syncs pool; nil status is allowed.
	a.cab.Sched.Fork("ping", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		if err := a.icmp.Ping(ctx, wire.NodeIP(2), 9, 4, []byte("payload-echoes-back"), nil); err != nil {
			k.Fatalf("ping: %v", err)
		}
	})
	if err := k.RunFor(10 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	echoes, _, _, _ := b.icmp.Stats()
	if echoes != 1 {
		t.Errorf("b served %d echoes, want 1", echoes)
	}
	_, replies, _, _ := a.icmp.Stats()
	if replies != 1 {
		t.Errorf("a received %d replies, want 1", replies)
	}
}

func TestCorruptedICMPDropped(t *testing.T) {
	// Corruption is caught by the hardware CRC at the datalink layer; the
	// ICMP checksum is a second line of defense exercised here directly by
	// mangling a message that passes CRC (we simulate by sending a bogus
	// checksum from a hand-built frame path: simplest is corrupting on
	// the wire and confirming no echo is served).
	k, a, b := twoNodes(t)
	a.cab.OutLink().CorruptNext(1)
	a.cab.Sched.Fork("ping", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		_ = a.icmp.Ping(ctx, wire.NodeIP(2), 1, 1, []byte("mangled"), nil)
	})
	if err := k.RunFor(10 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	echoes, _, _, _ := b.icmp.Stats()
	if echoes != 0 {
		t.Errorf("corrupted echo was served (%d)", echoes)
	}
}

func TestUpcallServesWithoutThread(t *testing.T) {
	// ICMP is a mailbox upcall (paper §4.1): serving an echo must not
	// require any dedicated ICMP thread or extra context switches beyond
	// the interrupt path.
	k, a, b := twoNodes(t)
	before := b.cab.Sched.Switches()
	a.cab.Sched.Fork("ping", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		_ = a.icmp.Ping(ctx, wire.NodeIP(2), 2, 2, nil, nil)
	})
	if err := k.RunFor(10 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	echoes, _, _, _ := b.icmp.Stats()
	if echoes != 1 {
		t.Fatalf("echo not served")
	}
	if sw := b.cab.Sched.Switches() - before; sw != 0 {
		t.Errorf("serving the echo cost %d context switches, want 0 (upcall)", sw)
	}
}
