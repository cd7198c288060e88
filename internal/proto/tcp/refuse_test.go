package tcp

import (
	"strings"
	"testing"

	"nectar/internal/hw/fiber"
	"nectar/internal/proto/wire"
	"nectar/internal/rt/exec"
	"nectar/internal/rt/threads"
	"nectar/internal/sim"
)

// TestRefusedSegmentsNotCounted: IP refuses every segment to a peer off
// the Nectar network, so neither a data segment nor a reset to it
// counts in segs_out, though both are charged.
func TestRefusedSegmentsNotCounted(t *testing.T) {
	r := newLockRig()
	r.sched.Fork("sender", threads.AppPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		r.c.sendData(ctx, make([]byte, MSS), nil)
		r.l.sendRST(ctx, peerIP, wire.TCPHeader{SrcPort: peerPort, DstPort: localPort + 1, Flags: wire.TCPAck})
	})
	if err := r.k.RunUntil(sim.Time(sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if r.c.sndNxt != r.c.iss+MSS {
		t.Fatalf("sndNxt %d, want iss+MSS %d: the segment was not sent", r.c.sndNxt, r.c.iss+MSS)
	}
	if n := r.l.counter("segs_out"); n != 0 {
		t.Errorf("segs_out = %d after two segments IP refused, want 0", n)
	}
}

// TestConnectOffNetwork: Connect to an address off the Nectar network
// returns IP's error as soon as IP refuses the SYN, rather than timing
// out after ConnectTimeout, and leaves no connection behind.
func TestConnectOffNetwork(t *testing.T) {
	r := newLockRig()
	var err error
	var conn *Conn
	var took sim.Duration
	r.sched.Fork("opener", threads.AppPriority, func(th *threads.Thread) {
		start := th.Now()
		conn, err = r.l.Connect(exec.OnCAB(th), peerIP, peerPort)
		took = sim.Duration(th.Now() - start)
	})
	if err := r.k.RunUntil(sim.Time(2 * ConnectTimeout)); err != nil {
		t.Fatal(err)
	}
	if err == nil || conn != nil || !strings.Contains(err.Error(), "not on the Nectar network") {
		t.Fatalf("Connect = %v, %v; want IP's off-network error", conn, err)
	}
	if took >= sim.Millisecond {
		t.Errorf("Connect took %v to fail, want the cost of one SYN's output", took)
	}
	// Only the rig's own connection remains.
	if len(r.l.conns) != 1 || r.l.counter("segs_out") != 0 {
		t.Errorf("%d conns and %d segs_out after the refused SYN, want 1 and 0", len(r.l.conns), r.l.counter("segs_out"))
	}
}

// sink is a fiber endpoint that takes every packet and answers none.
type sink struct{}

func (sink) PacketArriving(*fiber.Packet, sim.Time) {}

// TestFailedConnectsFreeMailboxes: a Connect that fails frees the receive
// mailbox it created, on each of its three failure paths: IP refuses the
// SYN, the peer never answers, and the peer resets. Afterwards no
// tcp.rcv mailbox but the rig's own connection's is registered, and the
// CAB heap holds what it held before the first Connect.
func TestFailedConnectsFreeMailboxes(t *testing.T) {
	r := newLockRig()
	rt, cb := r.l.rt, r.l.rt.CAB()
	// A fiber into nothing, so that IP accepts SYNs to node 2.
	cb.ConnectFiber(fiber.NewLink(r.k, cb.Cost(), "sink", sink{}))
	cb.SetRoute(2, []byte{0})
	used := cb.Heap.Used()
	var errs []error
	r.sched.Fork("opener", threads.AppPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		for _, port := range []uint16{peerPort, 9, 10} {
			dst := uint32(peerIP)
			if port != peerPort {
				dst = wire.NodeIP(2)
			}
			_, err := r.l.Connect(ctx, dst, port)
			errs = append(errs, err)
		}
	})
	// The third Connect's SYN is answered with a reset.
	r.k.After(ConnectTimeout+sim.Millisecond, func() {
		r.sched.Fork("peer", threads.SystemPriority, func(th *threads.Thread) {
			for key, c := range r.l.conns {
				if key.rport == 10 {
					r.segmentOn(th, key, wire.TCPRst|wire.TCPAck, 0, c.iss+1)
				}
			}
		})
	})
	if err := r.k.RunUntil(sim.Time(2 * ConnectTimeout)); err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"not on the Nectar network", "timed out", "refused"} {
		if i >= len(errs) || errs[i] == nil || !strings.Contains(errs[i].Error(), want) {
			t.Fatalf("Connect errors %v, want the %d-th to say %q", errs, i, want)
		}
	}
	for id := wire.MailboxID(1); id < 1<<8; id++ {
		if mb, ok := rt.Lookup(id); ok && mb != r.c.rcvBox && strings.HasPrefix(mb.Name(), "tcp.rcv.") {
			t.Errorf("mailbox %q still registered after its Connect failed", mb.Name())
		}
	}
	if got := cb.Heap.Used(); got != used {
		t.Errorf("CAB heap holds %d bytes after three failed Connects, want %d as before", got, used)
	}
}

// TestConnectTimeoutStopsRTO: a Connect whose SYN nobody answers stops
// the SYN's retransmission timer when it times out, as teardown does, so
// no retransmission wakes TCP's timer thread for a connection that is
// already Closed: once Connect returns, the CAB kernel holds as many
// events as before it.
func TestConnectTimeoutStopsRTO(t *testing.T) {
	r := newLockRig()
	cb := r.l.rt.CAB()
	// A fiber into nothing, so that IP accepts SYNs to node 2.
	cb.ConnectFiber(fiber.NewLink(r.k, cb.Cost(), "sink", sink{}))
	cb.SetRoute(2, []byte{0})
	var c *Conn
	r.k.After(sim.Millisecond, func() {
		for key, conn := range r.l.conns {
			if key.rport == 9 {
				c = conn
			}
		}
	})
	var err error
	armed := false
	before, after := -1, -1
	r.sched.Fork("opener", threads.AppPriority, func(th *threads.Thread) {
		before = r.k.PendingEvents() - 1 // less the lookup above
		_, err = r.l.Connect(exec.OnCAB(th), wire.NodeIP(2), 9)
		after = r.k.PendingEvents()
		armed = c != nil && c.rtoTimer.Pending()
	})
	if err := r.k.RunUntil(sim.Time(2 * ConnectTimeout)); err != nil {
		t.Fatal(err)
	}
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("Connect error %v, want a timeout", err)
	}
	if c == nil {
		t.Fatal("the connection was never registered")
	}
	if armed {
		t.Error("the SYN's retransmission timer is still armed when Connect returns")
	}
	if after != before {
		t.Errorf("%d events pending after the timed-out Connect, want %d as before it", after, before)
	}
}
