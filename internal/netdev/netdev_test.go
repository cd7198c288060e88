package netdev

import (
	"bytes"
	"testing"

	"nectar/internal/hw/cab"
	"nectar/internal/hw/fiber"
	"nectar/internal/hw/host"
	"nectar/internal/hw/hub"
	"nectar/internal/model"
	"nectar/internal/proto/datalink"
	"nectar/internal/proto/wire"
	"nectar/internal/rt/exec"
	"nectar/internal/rt/hostif"
	"nectar/internal/rt/mailbox"
	"nectar/internal/rt/threads"
	"nectar/internal/sim"
)

type node struct {
	cab  *cab.CAB
	host *host.Host
	drv  *Driver
}

func twoNodes(t *testing.T) (*sim.Kernel, *node, *node) {
	t.Helper()
	k := sim.NewKernel()
	cost := model.Default1990()
	h := hub.New(k, cost, "hub", hub.DefaultPorts)
	mk := func(id wire.NodeID, port int) *node {
		c := cab.New(k, cost, id)
		ho := host.New(k, cost, "host", c)
		f := hostif.New(ho, c)
		c.ConnectFiber(fiber.NewLink(k, cost, "up", h.InPort(port)))
		h.ConnectOut(port, fiber.NewLink(k, cost, "down", c))
		rt := mailbox.NewRuntime(c)
		rt.AttachHost(f)
		dl := datalink.NewLayer(c)
		return &node{cab: c, host: ho, drv: New(dl, rt)}
	}
	a := mk(1, 0)
	b := mk(2, 1)
	a.cab.SetRoute(2, []byte{1})
	b.cab.SetRoute(1, []byte{0})
	return k, a, b
}

func TestPacketRoundTrip(t *testing.T) {
	k, a, b := twoNodes(t)
	pkt := bytes.Repeat([]byte{0xAB}, 777)
	var got []byte
	b.host.Run("recv", func(th *threads.Thread) {
		ctx := exec.OnHost(th, b.host)
		got = b.drv.Input(ctx)
	})
	a.host.Run("send", func(th *threads.Thread) {
		ctx := exec.OnHost(th, a.host)
		a.drv.Output(ctx, 2, pkt)
	})
	if err := k.RunFor(50 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pkt) {
		t.Fatalf("got %d bytes, want %d", len(got), len(pkt))
	}
	tx, _ := a.drv.Stats()
	_, rx := b.drv.Stats()
	if tx != 1 || rx != 1 {
		t.Errorf("stats tx=%d rx=%d", tx, rx)
	}
}

func TestStreamOrderAndCompleteness(t *testing.T) {
	k, a, b := twoNodes(t)
	const n = 20
	var got []byte
	b.host.Run("recv", func(th *threads.Thread) {
		ctx := exec.OnHost(th, b.host)
		for i := 0; i < n; i++ {
			pkt := b.drv.Input(ctx)
			got = append(got, pkt[0])
		}
	})
	a.host.Run("send", func(th *threads.Thread) {
		ctx := exec.OnHost(th, a.host)
		for i := byte(0); i < n; i++ {
			a.drv.Output(ctx, 2, []byte{i})
		}
	})
	if err := k.RunFor(200 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("received %d of %d", len(got), n)
	}
	for i, v := range got {
		if v != byte(i) {
			t.Fatalf("order broken: %v", got)
		}
	}
}

func TestOversizePacketPanics(t *testing.T) {
	k, a, _ := twoNodes(t)
	a.host.Run("send", func(th *threads.Thread) {
		ctx := exec.OnHost(th, a.host)
		a.drv.Output(ctx, 2, make([]byte, MTU+1))
	})
	if err := k.RunFor(sim.Millisecond); err == nil {
		t.Error("oversize packet did not fail")
	}
}

func TestHostStackThroughputShape(t *testing.T) {
	// The host-resident stack must be far slower than the fiber allows:
	// the per-packet stack cost plus VME copies dominate (paper §6.3).
	k, a, b := twoNodes(t)
	const total = 64 << 10
	sa := NewHostStack(a.drv)
	sb := NewHostStack(b.drv)
	done := false
	var start, end sim.Time
	b.host.Run("recv", func(th *threads.Thread) {
		ctx := exec.OnHost(th, b.host)
		sb.RecvStream(ctx, total)
		end = th.Now()
		done = true
	})
	a.host.Run("send", func(th *threads.Thread) {
		ctx := exec.OnHost(th, a.host)
		start = th.Now()
		sa.SendStream(ctx, 2, total)
	})
	for !done {
		if err := k.RunFor(10 * sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		if k.Now() > sim.Time(10*sim.Second) {
			t.Fatal("stream stalled")
		}
	}
	mbps := float64(total) * 8 / sim.Duration(end-start).Seconds() / 1e6
	if mbps < 4 || mbps > 9 {
		t.Errorf("netdev stream = %.1f Mbit/s, want ~6.4 (paper)", mbps)
	}
}
