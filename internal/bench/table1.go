package bench

import (
	"fmt"

	"nectar/internal/model"
	"nectar/internal/obs"
	"nectar/internal/proto/wire"
	"nectar/internal/rt/exec"
	"nectar/internal/rt/threads"
	"nectar/internal/sim"
)

// Table1Row is one protocol's round-trip latency.
type Table1Row struct {
	Proto      string
	HostHostUS float64 // round trip between two host processes
	CABCABUS   float64 // round trip between two CAB threads
}

// Table1Result reproduces the paper's Table 1 (round-trip latency for UDP
// and the Nectar-specific protocols, §6.1). Metrics holds one registry
// snapshot per run, keyed "<proto>/host-host" and "<proto>/CAB-CAB".
type Table1Result struct {
	Rows    []Table1Row
	Metrics map[string]*obs.Snapshot
}

// Table 1 workload parameters: small echo messages, averaged over rounds
// after warmup (the paper reports steady-state round trips).
const (
	table1Rounds  = 16
	table1Warmup  = 4
	table1MsgSize = 4
)

// Table1 runs the round-trip latency experiment for every protocol.
func Table1(cost *model.CostModel) (*Table1Result, error) {
	if cost == nil {
		cost = model.Default1990()
	}
	res := &Table1Result{Metrics: make(map[string]*obs.Snapshot)}
	type runner struct {
		name string
		hh   func() (sim.Duration, *obs.Snapshot, error)
		cc   func() (sim.Duration, *obs.Snapshot, error)
	}
	runners := []runner{
		{"datagram", func() (sim.Duration, *obs.Snapshot, error) { return rttDatagram(cost, true, false) }, func() (sim.Duration, *obs.Snapshot, error) { return rttDatagram(cost, false, false) }},
		{"reliable (RMP)", func() (sim.Duration, *obs.Snapshot, error) { return rttRMP(cost, true) }, func() (sim.Duration, *obs.Snapshot, error) { return rttRMP(cost, false) }},
		{"request-response", func() (sim.Duration, *obs.Snapshot, error) { return rttRRP(cost, true) }, func() (sim.Duration, *obs.Snapshot, error) { return rttRRP(cost, false) }},
		{"UDP", func() (sim.Duration, *obs.Snapshot, error) { return rttUDP(cost, true) }, func() (sim.Duration, *obs.Snapshot, error) { return rttUDP(cost, false) }},
	}
	for _, r := range runners {
		hh, hhSnap, err := r.hh()
		if err != nil {
			return nil, fmt.Errorf("%s host-host: %w", r.name, err)
		}
		cc, ccSnap, err := r.cc()
		if err != nil {
			return nil, fmt.Errorf("%s CAB-CAB: %w", r.name, err)
		}
		res.Metrics[r.name+"/host-host"] = hhSnap
		res.Metrics[r.name+"/CAB-CAB"] = ccSnap
		res.Rows = append(res.Rows, Table1Row{Proto: r.name, HostHostUS: hh.Micros(), CABCABUS: cc.Micros()})
	}
	return res, nil
}

// echoHarness runs a ping-pong echo and returns the average round trip of
// the post-warmup rounds. send transmits one message toward the echoer;
// recv blocks for the next arriving message at the client; the echo side
// is set up by the caller before driving.
type echoHarness struct {
	done bool
	rtt  sim.Duration
}

func (h *echoHarness) client(t *threads.Thread, send func(), recv func()) {
	var total sim.Duration
	for i := 0; i < table1Rounds; i++ {
		start := t.Now()
		send()
		recv()
		if i >= table1Warmup {
			total += sim.Duration(t.Now() - start)
		}
	}
	h.rtt = total / sim.Duration(table1Rounds-table1Warmup)
	h.done = true
}

// rttDatagram measures the datagram echo round trip (the paper's 325 µs /
// 179 µs row). rxThread moves protocol input processing into a
// high-priority thread (ablation A1).
func rttDatagram(cost *model.CostModel, hostSide, rxThread bool) (sim.Duration, *obs.Snapshot, error) {
	cl, a, b := newCluster(cost, rxThread)
	h := &echoHarness{}
	boxA := a.Mailboxes.Create("echo.reply")
	boxB := b.Mailboxes.Create("echo.service")
	payload := make([]byte, table1MsgSize)
	addrB := wire.MailboxAddr{Node: b.ID, Box: boxB.ID()}
	addrA := wire.MailboxAddr{Node: a.ID, Box: boxA.ID()}

	if hostSide {
		b.Host.Run("echoer", func(t *threads.Thread) {
			ctx := exec.OnHost(t, b.Host)
			for {
				m := boxB.BeginGetPoll(ctx)
				buf := make([]byte, m.Len())
				m.Read(ctx, 0, buf)
				t.Compute(cost.HostMessageRead)
				boxB.EndGet(ctx, m)
				t.Compute(cost.HostMessageCreate)
				b.Transports.Datagram.Send(ctx, addrA, boxB.ID(), buf, nil)
			}
		})
		a.Host.Run("client", func(t *threads.Thread) {
			ctx := exec.OnHost(t, a.Host)
			h.client(t,
				func() {
					t.Compute(cost.HostMessageCreate)
					a.Transports.Datagram.Send(ctx, addrB, boxA.ID(), payload, nil)
				},
				func() {
					m := boxA.BeginGetPoll(ctx)
					t.Compute(cost.HostMessageRead)
					boxA.EndGet(ctx, m)
				})
		})
	} else {
		b.CAB.Sched.Fork("echoer", threads.SystemPriority, func(t *threads.Thread) {
			ctx := exec.OnCAB(t)
			for {
				m := boxB.BeginGet(ctx)
				boxB.EndGet(ctx, m)
				_ = b.Transports.Datagram.SendDirect(ctx, addrA, boxB.ID(), payload)
			}
		})
		a.CAB.Sched.Fork("client", threads.SystemPriority, func(t *threads.Thread) {
			ctx := exec.OnCAB(t)
			h.client(t,
				func() { _ = a.Transports.Datagram.SendDirect(ctx, addrB, boxA.ID(), payload) },
				func() {
					m := boxA.BeginGet(ctx)
					boxA.EndGet(ctx, m)
				})
		})
	}
	if err := drive(cl, &h.done); err != nil {
		return 0, nil, err
	}
	return h.rtt, cl.MetricsSnapshot(), nil
}

// rttRMP measures the reliable-message echo round trip.
func rttRMP(cost *model.CostModel, hostSide bool) (sim.Duration, *obs.Snapshot, error) {
	cl, a, b := newCluster(cost, false)
	h := &echoHarness{}
	boxA := a.Mailboxes.Create("echo.reply")
	boxB := b.Mailboxes.Create("echo.service")
	payload := make([]byte, table1MsgSize)
	addrB := wire.MailboxAddr{Node: b.ID, Box: boxB.ID()}
	addrA := wire.MailboxAddr{Node: a.ID, Box: boxA.ID()}

	if hostSide {
		b.Host.Run("echoer", func(t *threads.Thread) {
			ctx := exec.OnHost(t, b.Host)
			for {
				m := boxB.BeginGetPoll(ctx)
				t.Compute(cost.HostMessageRead)
				boxB.EndGet(ctx, m)
				t.Compute(cost.HostMessageCreate)
				b.Transports.RMP.Send(ctx, addrA, boxB.ID(), payload, nil)
			}
		})
		a.Host.Run("client", func(t *threads.Thread) {
			ctx := exec.OnHost(t, a.Host)
			h.client(t,
				func() {
					t.Compute(cost.HostMessageCreate)
					a.Transports.RMP.Send(ctx, addrB, boxA.ID(), payload, nil)
				},
				func() {
					m := boxA.BeginGetPoll(ctx)
					t.Compute(cost.HostMessageRead)
					boxA.EndGet(ctx, m)
				})
		})
	} else {
		b.CAB.Sched.Fork("echoer", threads.SystemPriority, func(t *threads.Thread) {
			ctx := exec.OnCAB(t)
			for {
				m := boxB.BeginGet(ctx)
				boxB.EndGet(ctx, m)
				b.Transports.RMP.SendBlocking(ctx, addrA, boxB.ID(), payload)
			}
		})
		a.CAB.Sched.Fork("client", threads.SystemPriority, func(t *threads.Thread) {
			ctx := exec.OnCAB(t)
			h.client(t,
				func() { a.Transports.RMP.SendBlocking(ctx, addrB, boxA.ID(), payload) },
				func() {
					m := boxA.BeginGet(ctx)
					boxA.EndGet(ctx, m)
				})
		})
	}
	if err := drive(cl, &h.done); err != nil {
		return 0, nil, err
	}
	return h.rtt, cl.MetricsSnapshot(), nil
}

// rttRRP measures the request-response (RPC transport) round trip — the
// abstract's "<500 µs" remote procedure call.
func rttRRP(cost *model.CostModel, hostSide bool) (sim.Duration, *obs.Snapshot, error) {
	cl, a, b := newCluster(cost, false)
	h := &echoHarness{}
	service := b.Mailboxes.Create("rpc.service")
	replyBox := a.Mailboxes.Create("rpc.reply")
	payload := make([]byte, table1MsgSize)
	addr := wire.MailboxAddr{Node: b.ID, Box: service.ID()}

	// The abstract's RPC anchor is "between application tasks executing
	// on two Nectar hosts": the server is a host process in host-host
	// mode, a CAB task in CAB-CAB mode.
	if hostSide {
		b.Host.Run("server", func(t *threads.Thread) {
			ctx := exec.OnHost(t, b.Host)
			for {
				m := service.BeginGetPoll(ctx)
				t.Compute(cost.HostMessageRead)
				t.Compute(cost.HostMessageCreate)
				b.Transports.RRP.Reply(ctx, m, payload)
				service.EndGet(ctx, m)
			}
		})
	} else {
		b.CAB.Sched.Fork("server", threads.SystemPriority, func(t *threads.Thread) {
			ctx := exec.OnCAB(t)
			for {
				m := service.BeginGet(ctx)
				b.Transports.RRP.Reply(ctx, m, payload)
				service.EndGet(ctx, m)
			}
		})
	}
	call := func(t *threads.Thread, ctx exec.Context) {
		st := a.Syncs.Alloc(ctx)
		a.Transports.RRP.Call(ctx, addr, payload, replyBox, st)
		if s := st.Read(ctx); s != 1 {
			cl.K.Fatalf("rpc status %d", s)
		}
		m := replyBox.BeginGetPoll(ctx)
		replyBox.EndGet(ctx, m)
	}
	if hostSide {
		a.Host.Run("client", func(t *threads.Thread) {
			ctx := exec.OnHost(t, a.Host)
			h.client(t, func() { call(t, ctx) }, func() {})
		})
	} else {
		a.CAB.Sched.Fork("client", threads.SystemPriority, func(t *threads.Thread) {
			ctx := exec.OnCAB(t)
			h.client(t, func() { call(t, ctx) }, func() {})
		})
	}
	if err := drive(cl, &h.done); err != nil {
		return 0, nil, err
	}
	return h.rtt, cl.MetricsSnapshot(), nil
}

// rttUDP measures the UDP echo round trip.
func rttUDP(cost *model.CostModel, hostSide bool) (sim.Duration, *obs.Snapshot, error) {
	cl, a, b := newCluster(cost, false)
	h := &echoHarness{}
	sa, err := a.UDP.Bind(1000)
	if err != nil {
		return 0, nil, err
	}
	sb, err := b.UDP.Bind(2000)
	if err != nil {
		return 0, nil, err
	}
	payload := make([]byte, table1MsgSize)

	if hostSide {
		b.Host.Run("echoer", func(t *threads.Thread) {
			ctx := exec.OnHost(t, b.Host)
			for {
				m := sb.RecvPoll(ctx)
				buf := make([]byte, m.Len())
				m.Read(ctx, 0, buf)
				t.Compute(cost.HostMessageRead)
				sb.Done(ctx, m)
				t.Compute(cost.HostMessageCreate)
				_ = sb.SendTo(ctx, wire.NodeIP(a.ID), 1000, buf)
			}
		})
		a.Host.Run("client", func(t *threads.Thread) {
			ctx := exec.OnHost(t, a.Host)
			h.client(t,
				func() {
					t.Compute(cost.HostMessageCreate)
					_ = sa.SendTo(ctx, wire.NodeIP(b.ID), 2000, payload)
				},
				func() {
					m := sa.RecvPoll(ctx)
					t.Compute(cost.HostMessageRead)
					sa.Done(ctx, m)
				})
		})
	} else {
		b.CAB.Sched.Fork("echoer", threads.SystemPriority, func(t *threads.Thread) {
			ctx := exec.OnCAB(t)
			for {
				m := sb.Recv(ctx)
				sb.Done(ctx, m)
				_ = sb.SendTo(ctx, wire.NodeIP(a.ID), 1000, payload)
			}
		})
		a.CAB.Sched.Fork("client", threads.SystemPriority, func(t *threads.Thread) {
			ctx := exec.OnCAB(t)
			h.client(t,
				func() { _ = sa.SendTo(ctx, wire.NodeIP(b.ID), 2000, payload) },
				func() {
					m := sa.Recv(ctx)
					sa.Done(ctx, m)
				})
		})
	}
	if err := drive(cl, &h.done); err != nil {
		return 0, nil, err
	}
	return h.rtt, cl.MetricsSnapshot(), nil
}

// Format renders Table 1 with the paper anchors.
func (r *Table1Result) Format() string {
	out := "Table 1: round-trip latency (microseconds)\n"
	out += fmt.Sprintf("%-18s  %12s  %12s\n", "protocol", "host-host", "CAB-CAB")
	for _, row := range r.Rows {
		out += fmt.Sprintf("%-18s  %9.0f us  %9.0f us\n", row.Proto, row.HostHostUS, row.CABCABUS)
	}
	out += "paper anchors: datagram 325/179 us; RPC < 500 us; UDP slowest\n"
	return out
}
