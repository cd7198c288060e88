package tcp

import (
	"slices"
	"testing"

	"nectar/internal/hw/cab"
	"nectar/internal/model"
	"nectar/internal/proto/datalink"
	"nectar/internal/proto/ip"
	"nectar/internal/proto/wire"
	"nectar/internal/rt/exec"
	"nectar/internal/rt/mailbox"
	"nectar/internal/rt/threads"
	"nectar/internal/sim"
)

// The peer of the connections below is off the Nectar network, so IP
// drops every segment they transmit after charging for it: a test
// delivers the peer's segments itself (lockRig.segment).
const (
	peerIP    = 0xC0A80001 // 192.168.0.1
	peerPort  = 80
	localPort = 1000
	connMutex = "mutex:tcp.conn.1000"
	connCond  = "cond:tcp.cond.1000"
)

// lockRig is one CAB's TCP with an established connection to peerIP.
type lockRig struct {
	k     *sim.Kernel
	sched *threads.Sched
	l     *Layer
	c     *Conn
	probe *mailbox.Mailbox // holds the peer's segments on their way in
}

func newLockRig() *lockRig {
	k := sim.NewKernel()
	cb := cab.New(k, model.Default1990(), 1)
	rt := mailbox.NewRuntime(cb)
	l := NewLayer(ip.NewLayer(datalink.NewLayer(cb), rt), rt)
	c := l.newConn(connKey{lport: localPort, rip: peerIP, rport: peerPort})
	c.state = Established
	return &lockRig{k: k, sched: cb.Sched, l: l, c: c, probe: rt.Create("probe")}
}

// segment has th handle a segment from the peer with the given flags,
// sequence and acknowledgment numbers, as the TCP input thread does.
func (r *lockRig) segment(th *threads.Thread, flags uint8, seq, ack uint32) {
	r.segmentOn(th, connKey{lport: localPort, rip: peerIP, rport: peerPort}, flags, seq, ack)
}

// segmentOn is segment for the connection key names.
func (r *lockRig) segmentOn(th *threads.Thread, key connKey, flags uint8, seq, ack uint32) {
	ctx := exec.OnCAB(th)
	b := make([]byte, wire.IPv4HeaderLen+wire.TCPHeaderLen)
	iph := wire.IPv4Header{TotalLen: uint16(len(b)), TTL: 64, Protocol: wire.ProtoTCP, Src: key.rip, Dst: r.l.ip.Addr()}
	iph.Marshal(b)
	h := wire.TCPHeader{SrcPort: key.rport, DstPort: key.lport, Seq: seq, Ack: ack, Flags: flags, Window: DefaultWindow}
	h.Marshal(b[wire.IPv4HeaderLen:])
	m := r.probe.BeginPut(ctx, len(b))
	m.Write(ctx, 0, b)
	r.probe.EndPut(ctx, m)
	r.l.handleSegment(ctx, r.probe.BeginGet(ctx))
}

// TestSegmentWaitsForTransmit: Conn.mu is held across transmit's
// compute, so a segment arriving while the send thread computes a
// segment's checksum waits for the lock. The thread handling it is
// reported blocked on the connection's mutex exactly while the sender
// is inside its section, and the segment, an ACK of the data being
// sent, is accepted once the sender has advanced sndNxt past it.
func TestSegmentWaitsForTransmit(t *testing.T) {
	r := newLockRig()
	c := r.c
	sending := false
	var input *threads.Thread
	r.sched.Fork("sender", threads.AppPriority, func(th *threads.Thread) {
		// The ACK arrives while the segment's checksum is computed.
		r.k.After(100*sim.Microsecond, func() {
			input = r.sched.Fork("input", threads.SystemPriority, func(th *threads.Thread) {
				r.segment(th, wire.TCPAck, 0, c.iss+MSS)
			})
		})
		sending = true
		c.sendData(exec.OnCAB(th), make([]byte, MSS), nil)
		sending = false
	})
	blocked := 0
	for now := sim.Time(0); now < sim.Time(5*sim.Millisecond); now += sim.Time(sim.Microsecond) {
		if err := r.k.RunUntil(now); err != nil {
			t.Fatal(err)
		}
		if input == nil || input.Describe() != connMutex {
			continue
		}
		blocked++
		if !sending {
			t.Fatalf("at %v the input thread is blocked on the conn mutex, but no send is in progress", now)
		}
	}
	if blocked == 0 {
		t.Fatalf("the input thread was never blocked on %s", connMutex)
	}
	if sending || !input.Done() {
		t.Fatalf("sending %v, input done %v: want both threads finished", sending, input.Done())
	}
	if c.sndUna != c.sndNxt || c.sndNxt != c.iss+MSS {
		t.Errorf("sndUna %d sndNxt %d, want both at iss+MSS %d: the ACK was not applied after the send", c.sndUna, c.sndNxt, c.iss+MSS)
	}
}

// TestWaitsReleaseConnMutex: a sender waiting for an ACK in sendData's
// window loop, in Close's drain loop, and in Close's wait for the
// peer's FIN does not hold Conn.mu. Each segment's handler takes and
// releases the lock without the clock moving while the sender is
// reported waiting on the connection's Cond, and the connection closes.
func TestWaitsReleaseConnMutex(t *testing.T) {
	r := newLockRig()
	c := r.c
	var sender *threads.Thread
	closed := false
	sender = r.sched.Fork("sender", threads.AppPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		c.sendData(ctx, make([]byte, MSS), nil)
		c.sendData(ctx, make([]byte, MSS), nil) // waits for the first ACK
		c.Close(ctx)                            // waits for the second ACK, then for the FIN
		closed = true
	})
	var waits []string
	probed := 0
	deliver := func(at sim.Duration, flags uint8) {
		r.k.At(sim.Time(at), func() {
			r.sched.Fork("input", threads.SystemPriority, func(th *threads.Thread) {
				waits = append(waits, sender.Describe())
				// A free mutex is taken in zero time; a held one blocks
				// the input thread until its holder lets go.
				at := th.Now()
				c.mu.Lock(th)
				c.mu.Unlock(th)
				probed++
				if th.Now() != at {
					t.Errorf("at %v the conn mutex is held while the sender waits (%s); the input thread got it at %v",
						at, waits[len(waits)-1], th.Now())
				}
				r.segment(th, flags, c.rcvNxt, c.sndNxt)
			})
		})
	}
	deliver(2*sim.Millisecond, wire.TCPAck)             // sendData's window loop
	deliver(4*sim.Millisecond, wire.TCPAck)             // Close's drain loop
	deliver(6*sim.Millisecond, wire.TCPFin|wire.TCPAck) // Close's FIN wait
	if err := r.k.RunUntil(sim.Time(8 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if probed != 3 {
		t.Errorf("%d of 3 segments took the conn mutex; the rest still wait for it", probed)
	}
	if want := []string{connCond, connCond, connCond}; !slices.Equal(waits, want) {
		t.Errorf("sender at each segment: %q, want %q", waits, want)
	}
	if !closed || c.state != TimeWaitState {
		t.Errorf("closed %v in state %v, want Close returned in %v", closed, c.state, TimeWaitState)
	}
}
