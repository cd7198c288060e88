package bench

import (
	"fmt"

	"nectar"
	"nectar/internal/hw/fiber"
	"nectar/internal/hw/hub"
	"nectar/internal/model"
	"nectar/internal/proto/wire"
	"nectar/internal/rt/exec"
	"nectar/internal/rt/mailbox"
	"nectar/internal/rt/threads"
	"nectar/internal/sim"
)

// AblateIPModeResult compares protocol input processing at interrupt time
// against a high-priority thread — the experiment §3.1 says the authors
// planned: "We will experiment with moving portions of it into
// high-priority threads. Although this will introduce additional context
// switching, the CAB will spend less time with interrupts disabled."
type AblateIPModeResult struct {
	InterruptRTTUS float64 // datagram CAB-CAB RTT, interrupt-time input
	ThreadRTTUS    float64 // same, rx-thread input
	InterruptMbps  float64 // RMP CAB-CAB throughput at 1 KB
	ThreadMbps     float64
}

// AblateIPMode runs the §3.1 input-processing ablation.
func AblateIPMode(cost *model.CostModel) (*AblateIPModeResult, error) {
	res := &AblateIPModeResult{}
	rtt, _, err := rttDatagram(cost, false, false)
	if err != nil {
		return nil, err
	}
	res.InterruptRTTUS = rtt.Micros()
	rtt, _, err = rttDatagram(cost, false, true)
	if err != nil {
		return nil, err
	}
	res.ThreadRTTUS = rtt.Micros()

	v, _, err := rmpThroughputCAB(cost, 1024, false)
	if err != nil {
		return nil, err
	}
	res.InterruptMbps = v
	v, _, err = rmpThroughputCAB(cost, 1024, true)
	if err != nil {
		return nil, err
	}
	res.ThreadMbps = v
	return res, nil
}

// Format renders A1.
func (r *AblateIPModeResult) Format() string {
	return fmt.Sprintf(
		"A1: protocol input at interrupt time vs high-priority thread (§3.1)\n"+
			"  datagram CAB-CAB RTT:  interrupt %6.1f us   thread %6.1f us\n"+
			"  RMP 1KB throughput:    interrupt %6.1f Mb   thread %6.1f Mb\n",
		r.InterruptRTTUS, r.ThreadRTTUS, r.InterruptMbps, r.ThreadMbps)
}

// AblateUpcallResult compares a CAB-local client-server pair implemented
// with a separate server thread against the server body attached as a
// mailbox reader upcall (§3.3: "this effectively converts a cross-thread
// procedure call into a local one").
type AblateUpcallResult struct {
	ThreadUS float64 // per request-response, separate server thread
	UpcallUS float64 // per request-response, reader upcall
}

// AblateUpcall runs the §3.3 upcall-vs-thread ablation.
func AblateUpcall(cost *model.CostModel) (*AblateUpcallResult, error) {
	const rounds = 100
	run := func(upcall bool) (sim.Duration, error) {
		cl := nectar.NewCluster(&nectar.Config{Cost: cost})
		n := cl.AddNode()
		reqBox := n.Mailboxes.Create("svc.req")
		repBox := n.Mailboxes.Create("svc.rep")
		serve := func(t *threads.Thread, m *mailbox.Msg) {
			ctx := exec.OnCAB(t)
			t.Compute(5 * sim.Microsecond) // the service body
			r := repBox.BeginPutNB(ctx, 1)
			if r == nil {
				cl.K.Fatalf("reply buffer exhausted")
				return
			}
			repBox.EndPut(ctx, r)
			reqBox.EndGet(ctx, m)
		}
		if upcall {
			reqBox.SetUpcall(func(t *threads.Thread, box *mailbox.Mailbox) {
				ctx := exec.OnCAB(t)
				if m := box.BeginGetNB(ctx); m != nil {
					serve(t, m)
				}
			})
		} else {
			n.CAB.Sched.Fork("server", threads.SystemPriority, func(t *threads.Thread) {
				ctx := exec.OnCAB(t)
				for {
					m := reqBox.BeginGet(ctx)
					serve(t, m)
				}
			})
		}
		done := false
		var took sim.Duration
		n.CAB.Sched.Fork("client", threads.SystemPriority, func(t *threads.Thread) {
			ctx := exec.OnCAB(t)
			start := t.Now()
			for i := 0; i < rounds; i++ {
				m := reqBox.BeginPut(ctx, 1)
				reqBox.EndPut(ctx, m)
				rep := repBox.BeginGet(ctx)
				repBox.EndGet(ctx, rep)
			}
			took = sim.Duration(t.Now()-start) / rounds
			done = true
		})
		if err := drive(cl, &done); err != nil {
			return 0, err
		}
		return took, nil
	}
	th, err := run(false)
	if err != nil {
		return nil, err
	}
	up, err := run(true)
	if err != nil {
		return nil, err
	}
	return &AblateUpcallResult{ThreadUS: th.Micros(), UpcallUS: up.Micros()}, nil
}

// Format renders A2.
func (r *AblateUpcallResult) Format() string {
	return fmt.Sprintf(
		"A2: CAB-local client-server, thread vs reader upcall (§3.3)\n"+
			"  separate server thread: %6.1f us/op\n"+
			"  reader upcall:          %6.1f us/op (saves the context switches)\n",
		r.ThreadUS, r.UpcallUS)
}

// AblateSwitchingResult compares packet-switched frames (700 ns setup per
// packet per HUB) against frames on a pre-established circuit (§2.1).
type AblateSwitchingResult struct {
	PacketFirstByteNS  float64
	CircuitFirstByteNS float64
}

// AblateSwitching measures per-frame first-byte latency through one HUB
// in both switching modes, at the fabric level.
func AblateSwitching(cost *model.CostModel) (*AblateSwitchingResult, error) {
	if cost == nil {
		cost = model.Default1990()
	}
	run := func(circuit bool) (float64, error) {
		k := sim.NewKernel()
		h := hub.New(k, cost, "hub", hub.DefaultPorts)
		var firstBytes []sim.Time
		var sends []sim.Time
		sink := endpointFunc(func(pkt *fiber.Packet, end sim.Time) {
			firstBytes = append(firstBytes, k.Now())
		})
		h.ConnectOut(1, fiber.NewLink(k, cost, "out", sink))
		up := fiber.NewLink(k, cost, "in", h.InPort(0))
		if circuit {
			if err := h.OpenCircuit(0, 1); err != nil {
				return 0, err
			}
		}
		for i := 0; i < 10; i++ {
			i := i
			k.After(sim.Duration(i)*100*sim.Microsecond, func() {
				sends = append(sends, k.Now())
				pkt := (*fiber.Pool)(nil).GetPacket()
				pkt.Route, pkt.Frame, pkt.Circuit = []byte{1}, make([]byte, 64), circuit
				up.Send(pkt)
			})
		}
		if err := k.Run(); err != nil {
			return 0, err
		}
		var total float64
		for i := range firstBytes {
			total += float64((firstBytes[i] - sends[i]).Nanos())
		}
		return total / float64(len(firstBytes)), nil
	}
	p, err := run(false)
	if err != nil {
		return nil, err
	}
	c, err := run(true)
	if err != nil {
		return nil, err
	}
	return &AblateSwitchingResult{PacketFirstByteNS: p, CircuitFirstByteNS: c}, nil
}

type endpointFunc func(pkt *fiber.Packet, end sim.Time)

func (f endpointFunc) PacketArriving(pkt *fiber.Packet, end sim.Time) { f(pkt, end) }

// Format renders A4.
func (r *AblateSwitchingResult) Format() string {
	return fmt.Sprintf(
		"A4: packet switching vs pre-established circuit (§2.1)\n"+
			"  packet-switched first byte:  %5.0f ns/frame (includes 700 ns setup)\n"+
			"  circuit-switched first byte: %5.0f ns/frame\n",
		r.PacketFirstByteNS, r.CircuitFirstByteNS)
}

// AblateMailboxImplResult is E8: host mailbox operations through the
// shared-memory implementation vs the RPC-based one (§3.3: "about a
// factor of two improvement").
type AblateMailboxImplResult struct {
	SharedUS float64 // per put+get pair
	RPCUS    float64
}

// AblateMailboxImpl measures host-side mailbox operation cost under both
// implementations.
func AblateMailboxImpl(cost *model.CostModel) (*AblateMailboxImplResult, error) {
	const rounds = 100
	run := func(rpc bool) (sim.Duration, error) {
		cl := nectar.NewCluster(&nectar.Config{Cost: cost})
		n := cl.AddNode()
		box := n.Mailboxes.Create("bench")
		box.SetHostRPC(rpc)
		done := false
		var took sim.Duration
		n.Host.Run("bench", func(t *threads.Thread) {
			ctx := exec.OnHost(t, n.Host)
			start := t.Now()
			for i := 0; i < rounds; i++ {
				m := box.BeginPut(ctx, 16)
				box.EndPut(ctx, m)
				g := box.BeginGetPoll(ctx)
				box.EndGet(ctx, g)
			}
			took = sim.Duration(t.Now()-start) / rounds
			done = true
		})
		if err := drive(cl, &done); err != nil {
			return 0, err
		}
		return took, nil
	}
	sh, err := run(false)
	if err != nil {
		return nil, err
	}
	rp, err := run(true)
	if err != nil {
		return nil, err
	}
	return &AblateMailboxImplResult{SharedUS: sh.Micros(), RPCUS: rp.Micros()}, nil
}

// Format renders E8.
func (r *AblateMailboxImplResult) Format() string {
	return fmt.Sprintf(
		"E8: host mailbox ops, shared-memory vs RPC implementation (§3.3)\n"+
			"  shared memory: %6.1f us per put+get\n"+
			"  RPC-based:     %6.1f us per put+get  (paper: ~2x slower)\n",
		r.SharedUS, r.RPCUS)
}

// AblateRMPWindowResult measures what the paper's stop-and-wait design
// costs on the 100 Mbit/s fiber, using this reproduction's windowed-RMP
// extension (the wire format's reserved Window field).
type AblateRMPWindowResult struct {
	StopAndWaitMbps float64 // window 1, the paper's protocol, 1 KB messages
	Window4Mbps     float64
	Window8Mbps     float64
}

// AblateRMPWindow compares CAB-to-CAB RMP throughput at 1 KB messages
// across sender window sizes: with stop-and-wait every message pays a full
// ack round trip; a deeper window overlaps them.
func AblateRMPWindow(cost *model.CostModel) (*AblateRMPWindowResult, error) {
	run := func(window int) (float64, error) {
		cl, a, b := newCluster(cost, false)
		a.Transports.RMP.SetWindow(window)
		const size = 1024
		n := messagesFor(size)
		box := b.Mailboxes.Create("sink")
		box.SetCapacity(1 << 20)
		done := false
		var start, end sim.Time
		b.CAB.Sched.Fork("drain", threads.SystemPriority, func(t *threads.Thread) {
			ctx := exec.OnCAB(t)
			for i := 0; i < n; i++ {
				m := box.BeginGet(ctx)
				box.EndGet(ctx, m)
			}
			end = t.Now()
			done = true
		})
		a.CAB.Sched.Fork("blast", threads.SystemPriority, func(t *threads.Thread) {
			ctx := exec.OnCAB(t)
			buf := make([]byte, size)
			start = t.Now()
			for i := 0; i < n; i++ {
				// Queue through the send-request mailbox so the window,
				// not the caller, paces transmissions.
				a.Transports.RMP.Send(ctx, box.Addr(), 0, buf, nil)
			}
		})
		if err := drive(cl, &done); err != nil {
			return 0, err
		}
		return mbps(n*size, sim.Duration(end-start)), nil
	}
	res := &AblateRMPWindowResult{}
	var err error
	if res.StopAndWaitMbps, err = run(1); err != nil {
		return nil, err
	}
	if res.Window4Mbps, err = run(4); err != nil {
		return nil, err
	}
	if res.Window8Mbps, err = run(8); err != nil {
		return nil, err
	}
	return res, nil
}

// Format renders the windowed-RMP extension ablation.
func (r *AblateRMPWindowResult) Format() string {
	return fmt.Sprintf(
		"A5 (extension): RMP sender window at 1KB messages, CAB-to-CAB\n"+
			"  window 1 (paper's stop-and-wait): %6.1f Mbit/s\n"+
			"  window 4:                         %6.1f Mbit/s\n"+
			"  window 8:                         %6.1f Mbit/s\n",
		r.StopAndWaitMbps, r.Window4Mbps, r.Window8Mbps)
}

// AblateAppLoadResult tests the §3.1 scheduling claim behind the CAB's
// flexibility: because protocol threads run at system priority and
// interrupts preempt everything, a compute-bound application task on the
// communication processor should barely disturb protocol latency.
type AblateAppLoadResult struct {
	IdleRTTUS   float64 // datagram CAB-CAB RTT, no application load
	LoadedRTTUS float64 // same, with a spinning app task on both CABs
}

// AblateAppLoad measures datagram round trips with and without a
// CPU-saturating application-priority task on each CAB.
func AblateAppLoad(cost *model.CostModel) (*AblateAppLoadResult, error) {
	run := func(loaded bool) (sim.Duration, error) {
		cl, a, b := newCluster(cost, false)
		if loaded {
			hog := func(t *threads.Thread) {
				for {
					t.Compute(10 * sim.Millisecond)
				}
			}
			a.CAB.Sched.Fork("hog", threads.AppPriority, hog)
			b.CAB.Sched.Fork("hog", threads.AppPriority, hog)
		}
		h := &echoHarness{}
		boxA := a.Mailboxes.Create("reply")
		boxB := b.Mailboxes.Create("service")
		b.CAB.Sched.Fork("echoer", threads.SystemPriority, func(t *threads.Thread) {
			ctx := exec.OnCAB(t)
			for {
				m := boxB.BeginGet(ctx)
				boxB.EndGet(ctx, m)
				_ = b.Transports.Datagram.SendDirect(ctx, boxA.Addr(), 0, []byte{0})
			}
		})
		a.CAB.Sched.Fork("client", threads.SystemPriority, func(t *threads.Thread) {
			ctx := exec.OnCAB(t)
			h.client(t,
				func() {
					_ = a.Transports.Datagram.SendDirect(ctx, wire.MailboxAddr{Node: b.ID, Box: boxB.ID()}, 0, []byte{0})
				},
				func() {
					m := boxA.BeginGet(ctx)
					boxA.EndGet(ctx, m)
				})
		})
		if err := drive(cl, &h.done); err != nil {
			return 0, err
		}
		return h.rtt, nil
	}
	idle, err := run(false)
	if err != nil {
		return nil, err
	}
	loaded, err := run(true)
	if err != nil {
		return nil, err
	}
	return &AblateAppLoadResult{IdleRTTUS: idle.Micros(), LoadedRTTUS: loaded.Micros()}, nil
}

// Format renders A6.
func (r *AblateAppLoadResult) Format() string {
	return fmt.Sprintf(
		"A6: protocol latency under CAB application load (§3.1 scheduling)\n"+
			"  datagram CAB-CAB RTT, idle CABs:          %6.1f us\n"+
			"  datagram CAB-CAB RTT, CPU-hog app tasks:  %6.1f us\n"+
			"  (system-priority protocols + preemption keep the penalty to context switches)\n",
		r.IdleRTTUS, r.LoadedRTTUS)
}
