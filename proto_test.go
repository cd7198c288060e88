package nectar

import (
	"bytes"
	"testing"

	"nectar/internal/obs"
	"nectar/internal/proto/icmp"
	"nectar/internal/proto/tcp"
	"nectar/internal/proto/wire"
	"nectar/internal/rt/exec"
	"nectar/internal/rt/threads"
	"nectar/internal/sim"
)

func TestUDPEndToEnd(t *testing.T) {
	cl, a, b := twoNodes(t, nil)
	sa, err := a.UDP.Bind(1111)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.UDP.Bind(2222)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	var srcPort uint32
	a.CAB.Sched.Fork("tx", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		if err := sa.SendTo(ctx, wire.NodeIP(b.ID), 2222, []byte("udp-hello")); err != nil {
			cl.K.Fatalf("send: %v", err)
		}
	})
	b.CAB.Sched.Fork("rx", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		m := sb.Recv(ctx)
		got = append([]byte(nil), m.Data()...)
		srcPort = m.Tag
		sb.Done(ctx, m)
	})
	if err := cl.RunFor(10 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if string(got) != "udp-hello" {
		t.Fatalf("got %q", got)
	}
	if srcPort != 1111 {
		t.Errorf("src port = %d", srcPort)
	}
}

func TestUDPHostToHostEcho(t *testing.T) {
	// The Table 1 UDP workload: host process pings, host process echoes.
	cl, a, b := twoNodes(t, nil)
	sa, _ := a.UDP.Bind(1000)
	sb, _ := b.UDP.Bind(2000)
	var rtt sim.Duration
	a.Host.Run("client", func(th *threads.Thread) {
		ctx := exec.OnHost(th, a.Host)
		start := th.Now()
		if err := sa.SendTo(ctx, wire.NodeIP(b.ID), 2000, []byte{42}); err != nil {
			cl.K.Fatalf("send: %v", err)
		}
		m := sa.RecvPoll(ctx)
		rtt = sim.Duration(th.Now() - start)
		sa.Done(ctx, m)
	})
	b.Host.Run("echo", func(th *threads.Thread) {
		ctx := exec.OnHost(th, b.Host)
		m := sb.RecvPoll(ctx)
		data := make([]byte, m.Len())
		m.Read(ctx, 0, data)
		sb.Done(ctx, m)
		if err := sb.SendTo(ctx, wire.NodeIP(a.ID), 1000, data); err != nil {
			cl.K.Fatalf("echo send: %v", err)
		}
	})
	if err := cl.RunFor(50 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if rtt == 0 {
		t.Fatal("echo never returned")
	}
	// Table 1 shows Nectar-specific datagram at 325us; UDP (over IP) is
	// somewhat slower. Accept a broad band around the paper's magnitude.
	if rtt < 300*sim.Microsecond || rtt > 900*sim.Microsecond {
		t.Errorf("UDP host-host RTT = %v, expected hundreds of microseconds", rtt)
	}
}

func TestIPFragmentationReassembly(t *testing.T) {
	cl, a, b := twoNodes(t, nil)
	// Force fragmentation with a small MTU on the sender; the receiver
	// reassembles regardless of its own MTU.
	a.IP.SetMTU(512)
	sa, _ := a.UDP.Bind(1111)
	sb, _ := b.UDP.Bind(2222)
	payload := bytes.Repeat([]byte{0xA5}, 3000)
	var got []byte
	a.CAB.Sched.Fork("tx", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		if err := sa.SendTo(ctx, wire.NodeIP(b.ID), 2222, payload); err != nil {
			cl.K.Fatalf("send: %v", err)
		}
	})
	b.CAB.Sched.Fork("rx", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		m := sb.Recv(ctx)
		got = append([]byte(nil), m.Data()...)
		sb.Done(ctx, m)
	})
	if err := cl.RunFor(100 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("reassembled %d bytes, want %d (content match: %v)", len(got), len(payload), bytes.Equal(got, payload))
	}
	snap := cl.MetricsSnapshot()
	fragsIn := snap.Value(obs.LayerIP, "in_fragments", b.CAB.Scope())
	reassembled := snap.Value(obs.LayerIP, "reassembled", b.CAB.Scope())
	if fragsIn < 6 || reassembled != 1 {
		t.Errorf("fragsIn=%d reassembled=%d", fragsIn, reassembled)
	}
}

func TestIPFragmentLossTimesOut(t *testing.T) {
	cl, a, b := twoNodes(t, nil)
	a.IP.SetMTU(512)
	sa, _ := a.UDP.Bind(1111)
	sb, _ := b.UDP.Bind(2222)
	aOut := findLinkFrom(t, cl, a)
	var got bool
	a.CAB.Sched.Fork("tx", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		aOut.DropNext(1) // lose the first fragment
		_ = sa.SendTo(ctx, wire.NodeIP(b.ID), 2222, bytes.Repeat([]byte{1}, 2000))
	})
	b.CAB.Sched.Fork("rx", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		m := sb.Recv(ctx)
		got = true
		sb.Done(ctx, m)
	})
	if err := cl.RunFor(20 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if got {
		t.Fatal("incomplete datagram was delivered")
	}
	// The reassembly buffers must have been reclaimed by the timeout.
	if used := b.CAB.Heap.Used(); used > 64<<10 {
		t.Errorf("heap used = %d after reassembly timeout; fragments leaked", used)
	}
}

func TestICMPPing(t *testing.T) {
	cl, a, b := twoNodes(t, nil)
	aICMP := icmp.NewLayer(a.IP)
	_ = icmp.NewLayer(b.IP)
	var rtt sim.Duration
	a.CAB.Sched.Fork("pinger", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		st := a.Syncs.Alloc(ctx)
		start := th.Now()
		if err := aICMP.Ping(ctx, wire.NodeIP(b.ID), 7, 1, []byte("pingdata"), st); err != nil {
			cl.K.Fatalf("ping: %v", err)
		}
		st.Read(ctx)
		rtt = sim.Duration(th.Now() - start)
	})
	if err := cl.RunFor(50 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if rtt == 0 {
		t.Fatal("no echo reply")
	}
	if rtt > sim.Millisecond {
		t.Errorf("ping rtt = %v, too slow", rtt)
	}
}

func TestTCPConnectSendClose(t *testing.T) {
	cl, a, b := twoNodes(t, nil)
	ln, err := b.TCP.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	var received []byte
	var eof bool
	b.CAB.Sched.Fork("server", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		c := ln.Accept(ctx)
		for {
			m := c.Recv(ctx)
			if m == nil {
				eof = true
				return
			}
			received = append(received, m.Data()...)
			c.RecvDone(ctx, m)
		}
	})
	a.CAB.Sched.Fork("client", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		c, err := a.TCP.Connect(ctx, wire.NodeIP(b.ID), 80)
		if err != nil {
			cl.K.Fatalf("connect: %v", err)
		}
		c.Send(ctx, []byte("hello "))
		c.Send(ctx, []byte("tcp world"))
		c.Close(ctx)
	})
	if err := cl.RunFor(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if string(received) != "hello tcp world" {
		t.Fatalf("received %q", received)
	}
	if !eof {
		t.Error("server never saw EOF")
	}
}

func TestTCPLargeTransfer(t *testing.T) {
	cl, a, b := twoNodes(t, nil)
	ln, _ := b.TCP.Listen(80)
	payload := make([]byte, 64<<10)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	var received []byte
	b.CAB.Sched.Fork("server", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		c := ln.Accept(ctx)
		for {
			m := c.Recv(ctx)
			if m == nil {
				return
			}
			received = append(received, m.Data()...)
			c.RecvDone(ctx, m)
		}
	})
	a.CAB.Sched.Fork("client", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		c, err := a.TCP.Connect(ctx, wire.NodeIP(b.ID), 80)
		if err != nil {
			cl.K.Fatalf("connect: %v", err)
		}
		for off := 0; off < len(payload); off += 8192 {
			c.Send(ctx, payload[off:off+8192])
		}
		c.Close(ctx)
	})
	if err := cl.RunFor(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(received, payload) {
		t.Fatalf("received %d bytes, want %d; equal=%v", len(received), len(payload), bytes.Equal(received, payload))
	}
}

func TestTCPRetransmitOnLoss(t *testing.T) {
	cl, a, b := twoNodes(t, nil)
	ln, _ := b.TCP.Listen(80)
	aOut := findLinkFrom(t, cl, a)
	var received []byte
	b.CAB.Sched.Fork("server", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		c := ln.Accept(ctx)
		for {
			m := c.Recv(ctx)
			if m == nil {
				return
			}
			received = append(received, m.Data()...)
			c.RecvDone(ctx, m)
		}
	})
	a.CAB.Sched.Fork("client", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		c, err := a.TCP.Connect(ctx, wire.NodeIP(b.ID), 80)
		if err != nil {
			cl.K.Fatalf("connect: %v", err)
		}
		aOut.DropNext(1) // lose the first data segment
		c.Send(ctx, []byte("lost-then-recovered"))
		c.Close(ctx)
	})
	if err := cl.RunFor(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if string(received) != "lost-then-recovered" {
		t.Fatalf("received %q", received)
	}
	if cl.MetricsSnapshot().Value(obs.LayerTCP, "retransmits", a.CAB.Scope()) == 0 {
		t.Error("no TCP retransmission recorded")
	}
}

func TestTCPHostToHost(t *testing.T) {
	// The Figure 8 workload shape: host sender, host receiver, data
	// crossing both VME buses.
	cl, a, b := twoNodes(t, nil)
	ln, _ := b.TCP.Listen(80)
	var connB *tcp.Conn
	var connA *tcp.Conn
	b.CAB.Sched.Fork("accept", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		connB = ln.Accept(ctx)
	})
	a.CAB.Sched.Fork("connect", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		var err error
		connA, err = a.TCP.Connect(ctx, wire.NodeIP(b.ID), 80)
		if err != nil {
			cl.K.Fatalf("connect: %v", err)
		}
	})
	if err := cl.RunFor(100 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if connA == nil || connB == nil {
		t.Fatal("handshake did not complete")
	}
	payload := bytes.Repeat([]byte("DATA"), 2048) // 8 KB
	var received []byte
	a.Host.Run("sender", func(th *threads.Thread) {
		ctx := exec.OnHost(th, a.Host)
		connA.Send(ctx, payload)
	})
	b.Host.Run("receiver", func(th *threads.Thread) {
		ctx := exec.OnHost(th, b.Host)
		for len(received) < len(payload) {
			m := connB.RecvPoll(ctx)
			if m == nil {
				break
			}
			buf := make([]byte, m.Len())
			m.Read(ctx, 0, buf)
			received = append(received, buf...)
			connB.RecvDone(ctx, m)
		}
	})
	if err := cl.RunFor(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(received, payload) {
		t.Fatalf("received %d/%d bytes", len(received), len(payload))
	}
}

func TestTCPNoChecksumAblation(t *testing.T) {
	// Figure 7's "TCP w/o checksum": with software checksums off the
	// transfer must still work (hardware CRC protects the frames) and be
	// measurably faster.
	elapsed := func(checksum bool) sim.Duration {
		cl, a, b := twoNodes(t, nil)
		a.TCP.SetChecksum(checksum)
		b.TCP.SetChecksum(checksum)
		ln, _ := b.TCP.Listen(80)
		var took sim.Time
		b.CAB.Sched.Fork("server", threads.SystemPriority, func(th *threads.Thread) {
			ctx := exec.OnCAB(th)
			c := ln.Accept(ctx)
			total := 0
			for total < 10*8192 {
				m := c.Recv(ctx)
				if m == nil {
					break
				}
				total += m.Len()
				c.RecvDone(ctx, m)
			}
			took = th.Now()
		})
		a.CAB.Sched.Fork("client", threads.SystemPriority, func(th *threads.Thread) {
			ctx := exec.OnCAB(th)
			c, err := a.TCP.Connect(ctx, wire.NodeIP(b.ID), 80)
			if err != nil {
				cl.K.Fatalf("connect: %v", err)
			}
			buf := make([]byte, 8192)
			for i := 0; i < 10; i++ {
				c.Send(ctx, buf)
			}
		})
		if err := cl.RunFor(5 * sim.Second); err != nil {
			t.Fatal(err)
		}
		return sim.Duration(took)
	}
	with := elapsed(true)
	without := elapsed(false)
	if with == 0 || without == 0 {
		t.Fatal("transfer incomplete")
	}
	if without >= with {
		t.Errorf("checksum-off (%v) not faster than checksum-on (%v)", without, with)
	}
}

func TestICMPDestinationUnreachable(t *testing.T) {
	// A datagram for an unbound IP protocol number is answered with an
	// ICMP protocol-unreachable, which the sender's ICMP reports upward.
	cl, a, b := twoNodes(t, nil)
	aICMP := icmp.NewLayer(a.IP)
	_ = icmp.NewLayer(b.IP)
	var gotProto uint8
	var gotDst uint32
	notified := false
	aICMP.OnUnreachable(func(proto uint8, dst uint32) {
		gotProto, gotDst = proto, dst
		notified = true
	})
	a.CAB.Sched.Fork("tx", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		err := a.IP.Output(ctx, wire.IPv4Header{Protocol: 99, Dst: wire.NodeIP(b.ID)},
			[]byte("nobody-listens-to-proto-99"))
		if err != nil {
			cl.K.Fatalf("output: %v", err)
		}
	})
	if err := cl.RunFor(50 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !notified {
		t.Fatal("no unreachable notification")
	}
	if gotProto != 99 {
		t.Errorf("quoted protocol = %d, want 99", gotProto)
	}
	if gotDst != wire.NodeIP(b.ID) {
		t.Errorf("quoted dst = %s", wire.FormatIP(gotDst))
	}
}
