package tcp

import (
	"strings"
	"testing"

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
	if n := r.l.Stats().SegsOut; n != 0 {
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
	if len(r.l.conns) != 1 || r.l.Stats().SegsOut != 0 {
		t.Errorf("%d conns and %d segs_out after the refused SYN, want 1 and 0", len(r.l.conns), r.l.Stats().SegsOut)
	}
}
