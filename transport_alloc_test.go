package nectar

import (
	"testing"

	"nectar/internal/proto/tcp"
	"nectar/internal/proto/wire"
	"nectar/internal/rt/exec"
	"nectar/internal/rt/threads"
	"nectar/internal/sim"
)

// warmMsgSize is the payload of every message the warm-transport rigs
// send: one TCP segment, one RMP or RRP packet, one unfragmented UDP
// datagram.
const warmMsgSize = 1024

// warmRig starts, on a fresh two-node cluster, a sender that sends one
// warmMsgSize message per framePeriod and a receiver that consumes each
// one. host selects host processes at both ends instead of CAB threads.
// It returns the count of messages consumed.
type warmRig struct {
	name  string
	start func(t testing.TB, cl *Cluster, a, b *Node, host bool) *int
}

// warmRigs are the transports the zero-allocation pins and
// BenchmarkWarmTransport cover, each CAB-CAB and host-host.
var warmRigs = []warmRig{
	{"tcp", func(t testing.TB, cl *Cluster, a, b *Node, host bool) *int {
		return tcpWarm(t, cl, a, b, host, true)
	}},
	{"tcp-nocsum", func(t testing.TB, cl *Cluster, a, b *Node, host bool) *int {
		return tcpWarm(t, cl, a, b, host, false)
	}},
	{"rmp", rmpWarm},
	{"rrp", rrpWarm},
	{"udp", udpWarm},
}

// ctxOn returns the context for th at n: its host's when host is set,
// its CAB's otherwise.
func ctxOn(th *threads.Thread, n *Node, host bool) exec.Context {
	if host {
		return exec.OnHost(th, n.Host)
	}
	return exec.OnCAB(th)
}

// spawnOn starts fn at n as a host process or a CAB thread.
func spawnOn(n *Node, host bool, name string, fn func(th *threads.Thread, ctx exec.Context)) {
	body := func(th *threads.Thread) { fn(th, ctxOn(th, n, host)) }
	if host {
		n.Host.Run(name, body)
		return
	}
	n.CAB.Sched.Fork(name, threads.SystemPriority, body)
}

// everyPeriod calls send once per framePeriod, forever.
func everyPeriod(th *threads.Thread, send func()) {
	for next := th.Now(); ; {
		send()
		next += sim.Time(framePeriod)
		th.Sleep(sim.Duration(next - th.Now()))
	}
}

// tcpWarm opens a connection from a to b with CAB threads (connection
// set-up is CAB-only), then streams over it from a to b.
func tcpWarm(t testing.TB, cl *Cluster, a, b *Node, host, checksum bool) *int {
	a.TCP.SetChecksum(checksum)
	b.TCP.SetChecksum(checksum)
	ln, err := b.TCP.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	var ca, cb *tcp.Conn
	b.CAB.Sched.Fork("accept", threads.SystemPriority, func(th *threads.Thread) {
		cb = ln.Accept(exec.OnCAB(th))
	})
	a.CAB.Sched.Fork("connect", threads.SystemPriority, func(th *threads.Thread) {
		c, err := a.TCP.Connect(exec.OnCAB(th), wire.NodeIP(b.ID), 80)
		if err != nil {
			cl.K.Fatalf("connect: %v", err)
		}
		ca = c
	})
	if err := cl.RunFor(10 * framePeriod); err != nil {
		t.Fatal(err)
	}
	if ca == nil || cb == nil {
		t.Fatal("connection not established")
	}
	payload := make([]byte, warmMsgSize)
	delivered := new(int)
	spawnOn(a, host, "tx", func(th *threads.Thread, ctx exec.Context) {
		everyPeriod(th, func() { ca.Send(ctx, payload) })
	})
	spawnOn(b, host, "rx", func(th *threads.Thread, ctx exec.Context) {
		for {
			m := cb.Recv(ctx)
			if m.Len() != len(payload) {
				cl.K.Fatalf("received %d bytes, want %d", m.Len(), len(payload))
			}
			cb.RecvDone(ctx, m)
			*delivered++
		}
	})
	return delivered
}

// rmpWarm sends reliable messages from a to a mailbox on b: a CAB sender
// blocks in SendBlocking until each is acknowledged, a host sender
// submits through RMP's send-request mailbox.
func rmpWarm(t testing.TB, cl *Cluster, a, b *Node, host bool) *int {
	box := b.Mailboxes.Create("sink")
	dst := wire.MailboxAddr{Node: b.ID, Box: box.ID()}
	payload := make([]byte, warmMsgSize)
	delivered := new(int)
	spawnOn(a, host, "tx", func(th *threads.Thread, ctx exec.Context) {
		everyPeriod(th, func() {
			if host {
				a.Transports.RMP.Send(ctx, dst, 0, payload, nil)
			} else if st := a.Transports.RMP.SendBlocking(ctx, dst, 0, payload); st != 1 {
				cl.K.Fatalf("rmp status %d", st)
			}
		})
	})
	spawnOn(b, host, "rx", func(th *threads.Thread, ctx exec.Context) {
		for {
			m := box.BeginGet(ctx)
			box.EndGet(ctx, m)
			*delivered++
		}
	})
	return delivered
}

// rrpWarm makes one call per period from a to a service on b, which
// answers with a 64-byte reply (two 1 KB crossings of each host's bus
// would not fit in a period); a delivery is a reply consumed.
func rrpWarm(t testing.TB, cl *Cluster, a, b *Node, host bool) *int {
	service := b.Mailboxes.Create("rpc.service")
	replyBox := a.Mailboxes.Create("rpc.reply")
	dst := wire.MailboxAddr{Node: b.ID, Box: service.ID()}
	payload, reply := make([]byte, warmMsgSize), make([]byte, 64)
	delivered := new(int)
	spawnOn(b, host, "server", func(th *threads.Thread, ctx exec.Context) {
		for {
			m := service.BeginGet(ctx)
			b.Transports.RRP.Reply(ctx, m, reply)
			service.EndGet(ctx, m)
		}
	})
	spawnOn(a, host, "client", func(th *threads.Thread, ctx exec.Context) {
		everyPeriod(th, func() {
			st := a.Syncs.Alloc(ctx)
			a.Transports.RRP.Call(ctx, dst, payload, replyBox, st)
			if s := st.Read(ctx); s != 1 {
				cl.K.Fatalf("rrp status %d", s)
			}
			m := replyBox.BeginGet(ctx)
			replyBox.EndGet(ctx, m)
			*delivered++
		})
	})
	return delivered
}

// udpWarm sends datagrams from a socket on a to a socket on b.
func udpWarm(t testing.TB, cl *Cluster, a, b *Node, host bool) *int {
	sa, err := a.UDP.Bind(1000)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.UDP.Bind(2000)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, warmMsgSize)
	delivered := new(int)
	spawnOn(a, host, "tx", func(th *threads.Thread, ctx exec.Context) {
		everyPeriod(th, func() {
			if err := sa.SendTo(ctx, wire.NodeIP(b.ID), 2000, payload); err != nil {
				cl.K.Fatalf("sendto: %v", err)
			}
		})
	})
	spawnOn(b, host, "rx", func(th *threads.Thread, ctx exec.Context) {
		for {
			m := sb.Recv(ctx)
			if m.Len() != len(payload) {
				cl.K.Fatalf("received %d bytes, want %d", m.Len(), len(payload))
			}
			sb.Done(ctx, m)
			*delivered++
		}
	})
	return delivered
}

// warmSides names the two ends every warm rig runs at.
var warmSides = []struct {
	name string
	host bool
}{{"cab-cab", false}, {"host-host", true}}

// TestWarmTransportZeroAlloc pins every transport's warm message at zero
// allocations, CAB-CAB and host-host: TCP segments sit in the
// retransmission queue by value, RMP requests, RRP calls and the host
// send records of RRP and UDP come from per-layer free lists, and a CAB
// RMP sender blocks on the Cond its pooled request carries. The new
// pools' double-Put guard is on, so a record released twice panics.
func TestWarmTransportZeroAlloc(t *testing.T) {
	for _, rig := range warmRigs {
		for _, s := range warmSides {
			t.Run(rig.name+"/"+s.name, func(t *testing.T) {
				cl, a, b := twoNodes(t, nil)
				for _, n := range []*Node{a, b} {
					n.Transports.CheckPools()
					n.UDP.CheckPools()
				}
				assertWarmFramesAllocFree(t, cl, rig.start(t, cl, a, b, s.host))
			})
		}
	}
}

// BenchmarkWarmTransport times one warm message per iteration for every
// transport and side of TestWarmTransportZeroAlloc: an iteration is one
// framePeriod of virtual time with one message sent and consumed. Run
// with -benchmem; allocs/op is allocations per warm message.
func BenchmarkWarmTransport(b *testing.B) {
	for _, rig := range warmRigs {
		for _, s := range warmSides {
			b.Run(rig.name+"/"+s.name, func(b *testing.B) {
				cl := NewCluster(nil)
				na, nb := cl.AddNode(), cl.AddNode()
				delivered := rig.start(b, cl, na, nb, s.host)
				for i := 0; i < 32; i++ {
					if err := cl.RunFor(framePeriod); err != nil {
						b.Fatal(err)
					}
				}
				before := *delivered
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := cl.RunFor(framePeriod); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if got := *delivered - before; got != b.N {
					b.Fatalf("delivered %d messages in %d periods", got, b.N)
				}
			})
		}
	}
}
