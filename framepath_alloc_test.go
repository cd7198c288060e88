package nectar

import (
	"testing"

	"nectar/internal/proto/wire"
	"nectar/internal/rt/exec"
	"nectar/internal/rt/threads"
	"nectar/internal/sim"
)

// framePeriod spaces the datagrams of the frame-path allocation tests:
// each one is delivered and consumed well within it.
const framePeriod = sim.Millisecond

// assertWarmFramesAllocFree runs a warm cluster one framePeriod at a time,
// one message per period, and fails unless a period allocates nothing.
// Warm-up fills every pool the frame path draws on (packets, frames,
// receive descriptors, end-of-data records, message records, waiters);
// after that, a frame's hops through fiber, HUB, CAB, datalink and mailbox
// schedule only callbacks built with those pooled objects.
func assertWarmFramesAllocFree(t *testing.T, cl *Cluster, delivered *int) {
	t.Helper()
	run := func() {
		if err := cl.RunFor(framePeriod); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 32; i++ {
		run()
	}
	before := *delivered
	const runs = 100
	allocs := testing.AllocsPerRun(runs, run)
	// AllocsPerRun runs once more to warm up.
	if got := *delivered - before; got != runs+1 {
		t.Fatalf("delivered %d messages in %d periods, want one per period", got, runs+1)
	}
	if allocs != 0 {
		t.Errorf("a warm message allocates %.2f objects, want 0", allocs)
	}
}

// cabDatagrams starts a CAB thread on a that sends one datagram per period to
// a mailbox on b, and a CAB thread on b consuming them. It returns the
// count of datagrams consumed.
func cabDatagrams(cl *Cluster, a, b *Node) *int {
	box := b.Mailboxes.Create("sink")
	dst := wire.MailboxAddr{Node: b.ID, Box: box.ID()}
	payload := make([]byte, 64)
	delivered := new(int)
	a.CAB.Sched.Fork("tx", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		for next := th.Now(); ; {
			if err := a.Transports.Datagram.SendDirect(ctx, dst, 0, payload); err != nil {
				cl.K.Fatalf("send: %v", err)
				return
			}
			next += sim.Time(framePeriod)
			th.Sleep(sim.Duration(next - th.Now()))
		}
	})
	b.CAB.Sched.Fork("rx", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		for {
			m := box.BeginGet(ctx)
			if m.Len() != len(payload) {
				cl.K.Fatalf("received %d bytes, want %d", m.Len(), len(payload))
			}
			box.EndGet(ctx, m)
			*delivered++
		}
	})
	return delivered
}

// TestFramePathZeroAlloc pins the CAB-to-CAB frame path at zero
// allocations per frame: fiber transmit, HUB cut-through forward, CAB
// start-of-packet interrupt and receive DMA, datalink upcalls, mailbox
// put and get.
func TestFramePathZeroAlloc(t *testing.T) {
	cl, a, b := twoNodes(t, nil)
	assertWarmFramesAllocFree(t, cl, cabDatagrams(cl, a, b))
}

// TestFramePathZeroAllocRxThread is TestFramePathZeroAlloc with
// interrupts off (the §3.1 ablation): frames reach the datalink layer
// through its polling rx thread.
func TestFramePathZeroAllocRxThread(t *testing.T) {
	cl, a, b := twoNodes(t, &Config{RxThreadMode: true})
	assertWarmFramesAllocFree(t, cl, cabDatagrams(cl, a, b))
}

// TestFramePathZeroAllocHostToHost pins the host-to-host datagram at zero
// allocations: host A builds the request in CAB memory for the CAB's
// datagram thread, and a host B process blocked in the CAB driver is
// woken through the host signal queue and reads the message over VME.
func TestFramePathZeroAllocHostToHost(t *testing.T) {
	cl, a, b := twoNodes(t, nil)
	box := b.Mailboxes.Create("sink")
	dst := wire.MailboxAddr{Node: b.ID, Box: box.ID()}
	payload := make([]byte, 64)
	got := make([]byte, len(payload))
	delivered := new(int)
	a.Host.Run("sender", func(th *threads.Thread) {
		ctx := exec.OnHost(th, a.Host)
		for next := th.Now(); ; {
			a.Transports.Datagram.Send(ctx, dst, 0, payload, nil)
			next += sim.Time(framePeriod)
			th.Sleep(sim.Duration(next - th.Now()))
		}
	})
	b.Host.Run("receiver", func(th *threads.Thread) {
		ctx := exec.OnHost(th, b.Host)
		for {
			m := box.BeginGet(ctx)
			m.Read(ctx, 0, got)
			box.EndGet(ctx, m)
			*delivered++
		}
	})
	assertWarmFramesAllocFree(t, cl, delivered)
}
