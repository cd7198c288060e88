package nectar

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
	"nectar/internal/rt/syncs"
	"nectar/internal/rt/threads"
	"nectar/internal/sim"
)

// node is one fully wired host/CAB pair with the Nectar transports.
type node struct {
	cab   *cab.CAB
	host  *host.Host
	rt    *mailbox.Runtime
	pool  *syncs.Pool
	trans *Transports
}

func twoNodes(t *testing.T) (*sim.Kernel, *node, *node) {
	t.Helper()
	return twoNodesRx(t, true)
}

// twoNodesRx is twoNodes with the CABs' receive mode chosen: rxInterrupt
// false hands arriving frames to the datalink layer's polling rx thread
// (the §3.1 ablation).
func twoNodesRx(t *testing.T, rxInterrupt bool) (*sim.Kernel, *node, *node) {
	t.Helper()
	k := sim.NewKernel()
	cost := model.Default1990()
	h := hub.New(k, cost, "hub", hub.DefaultPorts)
	mk := func(id wire.NodeID, port int) *node {
		c := cab.NewSized(k, cost, id, 0)
		c.SetRxInterruptMode(rxInterrupt)
		ho := host.New(k, cost, "host", c)
		f := hostif.New(ho, c)
		c.ConnectFiber(fiber.NewLink(k, cost, "up", h.InPort(port)))
		h.ConnectOut(port, fiber.NewLink(k, cost, "down", c))
		rt := mailbox.NewRuntime(c)
		rt.AttachHost(f)
		pool := syncs.NewPool(f)
		dl := datalink.NewLayer(c)
		return &node{cab: c, host: ho, rt: rt, pool: pool, trans: Attach(dl, rt)}
	}
	a := mk(1, 0)
	b := mk(2, 1)
	a.cab.SetRoute(2, []byte{1})
	b.cab.SetRoute(1, []byte{0})
	return k, a, b
}

func TestDatagramQueuePathWithStatusSync(t *testing.T) {
	k, a, b := twoNodes(t)
	sink := b.rt.Create("sink")
	var st uint32
	var got []byte
	a.host.Run("send", func(th *threads.Thread) {
		ctx := exec.OnHost(th, a.host)
		s := a.pool.Alloc(ctx)
		a.trans.Datagram.Send(ctx, sink.Addr(), 0, []byte("queued"), s)
		st = s.Read(ctx)
	})
	b.cab.Sched.Fork("rx", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		m := sink.BeginGet(ctx)
		got = append([]byte(nil), m.Data()...)
		sink.EndGet(ctx, m)
	})
	if err := k.RunFor(20 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if st != StatusOK {
		t.Errorf("status = %d", st)
	}
	if string(got) != "queued" {
		t.Errorf("got %q", got)
	}
}

func TestDatagramNoRouteStatus(t *testing.T) {
	k, a, _ := twoNodes(t)
	var st uint32
	a.host.Run("send", func(th *threads.Thread) {
		ctx := exec.OnHost(th, a.host)
		s := a.pool.Alloc(ctx)
		a.trans.Datagram.Send(ctx, wire.MailboxAddr{Node: 77, Box: 1}, 0, []byte("x"), s)
		st = s.Read(ctx)
	})
	if err := k.RunFor(20 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if st != StatusNoRoute {
		t.Errorf("status = %d, want NoRoute", st)
	}
}

func TestDatagramUnknownMailboxDropped(t *testing.T) {
	k, a, b := twoNodes(t)
	a.cab.Sched.Fork("tx", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		_ = a.trans.Datagram.SendDirect(ctx, wire.MailboxAddr{Node: 2, Box: 999}, 0, []byte("void"))
	})
	if err := k.RunFor(10 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	noBox := b.trans.Datagram.noBox
	if noBox != 1 {
		t.Errorf("noBox = %d", noBox)
	}
	if used := b.cab.Heap.Used(); used > 16<<10 {
		t.Errorf("dropped datagram leaked: heap used %d", used)
	}
}

func TestRMPTimeoutExhaustsRetries(t *testing.T) {
	k, a, b := twoNodes(t)
	sink := b.rt.Create("sink")
	a.cab.OutLink().SetFaultFn(fiber.DropThenCorrupt(1+MaxRetries, 0)) // kill original + all retries
	var st uint32
	a.cab.Sched.Fork("tx", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		st = a.trans.RMP.SendBlocking(ctx, sink.Addr(), 0, []byte("doomed"))
	})
	if err := k.RunFor(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if st != StatusTimeout {
		t.Errorf("status = %d, want Timeout", st)
	}
	retrans := a.trans.RMP.retrans
	if retrans != uint64(MaxRetries) {
		t.Errorf("retrans = %d, want %d", retrans, MaxRetries)
	}
}

func TestRMPPipelinedQueueing(t *testing.T) {
	// Multiple queued sends to one peer proceed in order, one in flight
	// at a time (stop-and-wait).
	k, a, b := twoNodes(t)
	sink := b.rt.Create("sink")
	var got []byte
	a.host.Run("send", func(th *threads.Thread) {
		ctx := exec.OnHost(th, a.host)
		for i := byte(0); i < 8; i++ {
			a.trans.RMP.Send(ctx, sink.Addr(), 0, []byte{i}, nil)
		}
	})
	b.cab.Sched.Fork("rx", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		for i := 0; i < 8; i++ {
			m := sink.BeginGet(ctx)
			got = append(got, m.Data()[0])
			sink.EndGet(ctx, m)
		}
	})
	if err := k.RunFor(100 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{0, 1, 2, 3, 4, 5, 6, 7}) {
		t.Fatalf("got %v", got)
	}
}

func TestRMPDuplicateSuppressedOnAckLoss(t *testing.T) {
	// Lose the first ACK: the sender retransmits; the receiver must ack
	// again but deliver only once.
	k, a, b := twoNodes(t)
	sink := b.rt.Create("sink")
	b.cab.OutLink().SetFaultFn(fiber.DropThenCorrupt(1, 0)) // the receiver's first ack
	delivered := 0
	a.cab.Sched.Fork("tx", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		if st := a.trans.RMP.SendBlocking(ctx, sink.Addr(), 0, []byte("once")); st != StatusOK {
			k.Fatalf("status %d", st)
		}
	})
	b.cab.Sched.Fork("rx", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		for {
			m := sink.BeginGet(ctx)
			delivered++
			sink.EndGet(ctx, m)
		}
	})
	if err := k.RunFor(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatalf("delivered %d times, want exactly 1", delivered)
	}
	dups := b.trans.RMP.dups
	if dups != 1 {
		t.Errorf("dups = %d, want 1", dups)
	}
}

func TestRRPRequestLossRecovered(t *testing.T) {
	k, a, b := twoNodes(t)
	service := b.rt.Create("svc")
	replyBox := a.rt.Create("rep")
	a.cab.OutLink().SetFaultFn(fiber.DropThenCorrupt(1, 0)) // lose the request; client must retransmit
	b.cab.Sched.Fork("server", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		m := service.BeginGet(ctx)
		b.trans.RRP.Reply(ctx, m, []byte("pong"))
		service.EndGet(ctx, m)
	})
	var reply []byte
	a.cab.Sched.Fork("client", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		st := a.pool.Alloc(ctx)
		a.trans.RRP.Call(ctx, service.Addr(), []byte("ping"), replyBox, st)
		if st.Read(ctx) == StatusOK {
			m := replyBox.BeginGet(ctx)
			reply = append([]byte(nil), m.Data()...)
			replyBox.EndGet(ctx, m)
		}
	})
	if err := k.RunFor(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if string(reply) != "pong" {
		t.Fatalf("reply = %q", reply)
	}
	retrans := a.trans.RRP.retrans
	if retrans == 0 {
		t.Error("no retransmission recorded")
	}
}

// TestRRPReplyWhileRTOPending answers a call after its retransmission
// timer has fired but before the timer's interrupt is handled, and then
// makes the next call before the handler runs. The client masks
// interrupts across a long compute, so the rrp-rto interrupt pends, and
// the reply reaches it through the rx thread, which preempts the
// client's compute. When the client unmasks, the handler finds its call
// completed and must do nothing; had the record been reused for the
// second call, the handler would retransmit that call instead.
func TestRRPReplyWhileRTOPending(t *testing.T) {
	k, a, b := twoNodesRx(t, false)
	service := b.rt.Create("svc")
	replyBox := a.rt.Create("rep")
	served := 0
	b.cab.Sched.Fork("server", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		for {
			m := service.BeginGet(ctx)
			served++
			if served == 1 {
				th.Compute(RTO + sim.Millisecond) // answer after the client's RTO
			}
			b.trans.RRP.Reply(ctx, m, []byte("pong"))
			service.EndGet(ctx, m)
		}
	})
	var st1, st2 uint32
	var first *rrpCall
	a.cab.Sched.Fork("client", threads.AppPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		s1 := a.pool.Alloc(ctx)
		a.trans.RRP.Call(ctx, service.Addr(), []byte("one"), replyBox, s1)
		first = a.trans.RRP.pending[a.trans.RRP.nextXID]
		th.DisableInterrupts()
		th.Compute(2 * RTO) // the RTO fires and pends; the reply arrives
		if a.trans.RRP.pending[first.xid] == first {
			k.Fatalf("first call still pending after its reply was due")
		}
		st1 = s1.Read(ctx)
		m := replyBox.BeginGet(ctx)
		replyBox.EndGet(ctx, m)
		s2 := a.pool.Alloc(ctx)
		a.trans.RRP.Call(ctx, service.Addr(), []byte("two"), replyBox, s2)
		if a.trans.RRP.pending[a.trans.RRP.nextXID] == first {
			k.Fatalf("second call reuses the first call's record while its RTO interrupt is pending")
		}
		th.EnableInterrupts() // the first call's RTO handler runs
		st2 = s2.Read(ctx)
		m = replyBox.BeginGet(ctx)
		replyBox.EndGet(ctx, m)
	})
	if err := k.RunFor(sim.Second); err != nil {
		t.Fatal(err)
	}
	if st1 != StatusOK || st2 != StatusOK {
		t.Fatalf("statuses %d, %d, want %d, %d", st1, st2, StatusOK, StatusOK)
	}
	if r := a.trans.RRP.retrans; r != 0 {
		t.Errorf("retransmits = %d, want 0", r)
	}
	if served != 2 {
		t.Errorf("server handled %d requests, want 2", served)
	}
}

func TestRRPTimeout(t *testing.T) {
	// No server at all: the call must fail with StatusTimeout.
	k, a, b := twoNodes(t)
	replyBox := a.rt.Create("rep")
	var st uint32
	a.cab.Sched.Fork("client", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		s := a.pool.Alloc(ctx)
		a.trans.RRP.Call(ctx, wire.MailboxAddr{Node: 2, Box: 999}, []byte("x"), replyBox, s)
		st = s.Read(ctx)
	})
	_ = b
	if err := k.RunFor(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if st != StatusTimeout {
		t.Errorf("status = %d, want Timeout", st)
	}
}

func TestRRPHostServer(t *testing.T) {
	// Reply from a host process goes through the send-request mailbox.
	k, a, b := twoNodes(t)
	service := b.rt.Create("svc")
	replyBox := a.rt.Create("rep")
	b.host.Run("server", func(th *threads.Thread) {
		ctx := exec.OnHost(th, b.host)
		m := service.BeginGetPoll(ctx)
		b.trans.RRP.Reply(ctx, m, []byte("from-host"))
		service.EndGet(ctx, m)
	})
	var reply []byte
	a.cab.Sched.Fork("client", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		s := a.pool.Alloc(ctx)
		a.trans.RRP.Call(ctx, service.Addr(), []byte("hi"), replyBox, s)
		if s.Read(ctx) == StatusOK {
			m := replyBox.BeginGet(ctx)
			reply = append([]byte(nil), m.Data()...)
			replyBox.EndGet(ctx, m)
		}
	})
	if err := k.RunFor(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if string(reply) != "from-host" {
		t.Fatalf("reply = %q", reply)
	}
}

func TestReqHeaderRoundTrip(t *testing.T) {
	h := reqHeader{DstNode: 3, DstBox: 9, SrcBox: 12, Kind: kindReply, XID: 0xDEADBEEF}
	var b [reqHeaderLen]byte
	h.marshal(b[:])
	var g reqHeader
	g.unmarshal(b[:])
	if g != h {
		t.Errorf("round trip: %+v != %+v", g, h)
	}
}

func TestRMPWindowedDeliveryInOrder(t *testing.T) {
	// The windowed-RMP extension must preserve exactly-once in-order
	// delivery, including under loss (go-back-N recovery).
	k, a, b := twoNodes(t)
	a.trans.RMP.SetWindow(4)
	sink := b.rt.Create("sink")
	a.cab.OutLink().SetFaultFn(fiber.DropThenCorrupt(3, 0)) // lose an early burst
	var got []byte
	a.host.Run("send", func(th *threads.Thread) {
		ctx := exec.OnHost(th, a.host)
		for i := byte(0); i < 16; i++ {
			a.trans.RMP.Send(ctx, sink.Addr(), 0, []byte{i}, nil)
		}
	})
	b.cab.Sched.Fork("rx", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		for i := 0; i < 16; i++ {
			m := sink.BeginGet(ctx)
			got = append(got, m.Data()[0])
			sink.EndGet(ctx, m)
		}
	})
	if err := k.RunFor(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if len(got) != 16 {
		t.Fatalf("delivered %d of 16", len(got))
	}
	for i, v := range got {
		if v != byte(i) {
			t.Fatalf("order broken at %d: %v", i, got)
		}
	}
}

func TestRMPWindowedKeepsPipelineFull(t *testing.T) {
	// With window 4, several data frames must be on the wire before the
	// first ack returns (sent count outpaces acked early on).
	k, a, b := twoNodes(t)
	a.trans.RMP.SetWindow(4)
	sink := b.rt.Create("sink")
	sink.SetCapacity(1 << 20)
	a.cab.Sched.Fork("send", threads.SystemPriority, func(th *threads.Thread) {
		// Queue from the CAB side: a host sender is VME-bound and would
		// never have more than one message ready at a time.
		ctx := exec.OnCAB(th)
		buf := make([]byte, 2048)
		for i := 0; i < 12; i++ {
			a.trans.RMP.Send(ctx, sink.Addr(), 0, buf, nil)
		}
	})
	maxOutstanding := 0
	done := false
	b.cab.Sched.Fork("rx", threads.SystemPriority, func(th *threads.Thread) {
		ctx := exec.OnCAB(th)
		for i := 0; i < 12; i++ {
			m := sink.BeginGet(ctx)
			sink.EndGet(ctx, m)
		}
		done = true
	})
	// Sample the in-flight depth on a fine timer; the drain thread runs
	// too late to see it (acks are processed at interrupt level).
	var sampler func()
	sampler = func() {
		if done {
			return
		}
		sent, acked := a.trans.RMP.sent, a.trans.RMP.acked
		if d := int(sent - acked); d > maxOutstanding {
			maxOutstanding = d
		}
		k.After(5*sim.Microsecond, sampler)
	}
	k.After(0, func() { sampler() })
	if err := k.RunFor(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if maxOutstanding < 2 {
		t.Errorf("max outstanding = %d; window not pipelining", maxOutstanding)
	}
}
