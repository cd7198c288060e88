package bench

import (
	"fmt"

	"nectar"
	"nectar/internal/model"
	"nectar/internal/obs"
	"nectar/internal/proto/wire"
	"nectar/internal/rt/exec"
	"nectar/internal/rt/threads"
	"nectar/internal/sim"
)

// Fig6Stage is one segment of the one-way latency breakdown.
type Fig6Stage struct {
	Name string
	US   float64
}

// Fig6Result reproduces the paper's Figure 6: the component breakdown of
// a one-way host-to-host datagram (paper total: 163 µs, split roughly
// 40 % host-CAB interface, 40 % CAB-to-CAB, 20 % host message handling).
type Fig6Result struct {
	Proto   string // transport traced: "datagram" (the paper's) or "rmp"
	TotalUS float64
	Stages  []Fig6Stage
	Metrics *obs.Snapshot // registry snapshot at the end of the run
	// Bucket percentages per the paper's attribution.
	HostPct      float64 // host creating and reading the message
	InterfacePct float64 // host-CAB interface (both sides)
	CABPct       float64 // CAB-to-CAB (protocol processing + wire)
}

// Fig6Anchors are the instants of a one-way exchange that the typed trace
// cannot see, because they bound pure host compute phases, plus the two
// node ids the trace's stage boundaries are looked up on.
type Fig6Anchors struct {
	Start, CreateDone, RxBegin, ReadDone, RxEnd sim.Time
	Sender, Receiver                            int
}

// Fig6 sends one 4-byte datagram host-to-host with the typed trace
// recorded and attributes every microsecond of the one-way path.
func Fig6(cost *model.CostModel) (*Fig6Result, error) {
	run, err := Fig6Exchange(cost, "datagram", 4)
	if err != nil {
		return nil, err
	}
	res, err := Fig6Attribute("datagram", run.Events, run.Anchors)
	if err != nil {
		return nil, err
	}
	res.Metrics = run.Metrics
	return res, nil
}

// Fig6Run is one traced exchange of Fig6Exchange.
type Fig6Run struct {
	Anchors Fig6Anchors // RxBegin, ReadDone and RxEnd stay 0 over "rrp"
	End     sim.Time    // when the later of the two sides finished
	// Events is the typed trace from Anchors.Start to End, as
	// recordTrace gives it.
	Events  []obs.Event
	Metrics *obs.Snapshot // registry snapshot at the end of the run
}

// Fig6Exchange runs Figure 6's workload over proto ("datagram", "rmp" or
// "rrp") on a fresh two-node cluster with the typed trace recorded.
// After the runtime boots, a's host creates a size-byte message and
// sends it. Over "datagram" and "rmp" it goes to a mailbox that b's host
// polls, reads and releases; over "rrp" it is a call that a server
// thread on b's CAB answers with the same payload, and a's host takes
// the reply. It is the one Figure 6 exchange: nectar-bench fig6 and
// nectar-obs trace both run it.
func Fig6Exchange(cost *model.CostModel, proto string, size int) (*Fig6Run, error) {
	if cost == nil {
		cost = model.Default1990()
	}
	cl, a, b := newCluster(cost, false)
	trace := recordTrace(cl)
	an, end, err := fig6Exchange(cl, a, b, cost, proto, size)
	if err != nil {
		return nil, err
	}
	run := &Fig6Run{Anchors: an, End: end, Metrics: cl.MetricsSnapshot()}
	for _, e := range trace() {
		if e.At >= an.Start && e.At <= end {
			run.Events = append(run.Events, e)
		}
	}
	return run, nil
}

// fig6Exchange runs Fig6Exchange's workload on a fresh cluster cl of
// nodes a and b, and returns its anchors and the instant the later side
// finished.
func fig6Exchange(cl *nectar.Cluster, a, b *nectar.Node, cost *model.CostModel, proto string, size int) (Fig6Anchors, sim.Time, error) {
	an := Fig6Anchors{Sender: int(a.ID), Receiver: int(b.ID)}
	sink := b.Mailboxes.Create("trace.sink")
	addrSink := wire.MailboxAddr{Node: b.ID, Box: sink.ID()}
	payload := make([]byte, size)

	// Each side has its own flag and end time: the two hosts may run on
	// different shards.
	sent, received := false, proto == "rrp" // the RRP caller sees the reply itself
	var sentAt sim.Time
	var addrSvc wire.MailboxAddr
	if proto == "rrp" {
		service := b.Mailboxes.Create("trace.service")
		addrSvc = wire.MailboxAddr{Node: b.ID, Box: service.ID()}
		b.CAB.Sched.Fork("server", threads.SystemPriority, func(t *threads.Thread) {
			ctx := exec.OnCAB(t)
			m := service.BeginGet(ctx)
			b.Transports.RRP.Reply(ctx, m, payload)
			service.EndGet(ctx, m)
		})
	} else {
		b.Host.Run("receiver", func(t *threads.Thread) {
			ctx := exec.OnHost(t, b.Host)
			m := sink.BeginGetPoll(ctx)
			an.RxBegin = t.Now()
			m.Read(ctx, 0, make([]byte, m.Len()))
			t.Compute(cost.HostMessageRead)
			an.ReadDone = t.Now()
			sink.EndGet(ctx, m)
			an.RxEnd = t.Now()
			received = true
		})
	}
	a.Host.Run("sender", func(t *threads.Thread) {
		ctx := exec.OnHost(t, a.Host)
		// Let the runtime boot (protocol threads park) before measuring.
		t.Sleep(5 * sim.Millisecond)
		an.Start = t.Now()
		// The paper's "host creating the message": build the message
		// content, then hand it to the transport (the two-phase put into
		// mapped CAB memory is host-CAB interface time).
		t.Compute(cost.HostMessageCreate)
		an.CreateDone = t.Now()
		switch proto {
		case "datagram":
			a.Transports.Datagram.Send(ctx, addrSink, 0, payload, nil)
		case "rmp":
			st := a.Syncs.Alloc(ctx)
			a.Transports.RMP.Send(ctx, addrSink, 0, payload, st)
			st.Read(ctx)
		case "rrp":
			st := a.Syncs.Alloc(ctx)
			reply := a.Mailboxes.Create("trace.reply")
			a.Transports.RRP.Call(ctx, addrSvc, payload, reply, st)
			st.Read(ctx)
			reply.EndGet(ctx, reply.BeginGetPoll(ctx))
		}
		sentAt = t.Now()
		sent = true
	})
	err := drive(cl, &sent, &received)
	return an, max(sentAt, an.RxEnd), err
}

// recordTrace installs a typed-event recorder on every shard kernel of
// cl. The returned function gives the trace: one kernel's events in
// dispatch order, or several kernels' merged by obs.CanonicalTrace. Both
// place the same events at the same instants, which is all firstEvent
// reads, for any shard count; only the order within an instant differs.
func recordTrace(cl *nectar.Cluster) func() []obs.Event {
	var recs []*obs.Recorder
	for _, k := range cl.Kernels() {
		r := &obs.Recorder{}
		obs.Ensure(k).SetSink(r)
		recs = append(recs, r)
	}
	return func() []obs.Event {
		if len(recs) == 1 {
			return recs[0].Events
		}
		streams := make([][]obs.Event, len(recs))
		for i, r := range recs {
			streams[i] = r.Events
		}
		return obs.CanonicalTrace(streams...)
	}
}

// Fig6Attribute attributes every microsecond of a one-way host-to-host
// exchange over proto ("datagram" or "rmp") to the paper's 11 stages and
// its three buckets. Each stage boundary on the CABs is the first event of
// its kind in the typed trace at or after an.Start. It is the one
// Figure 6 attribution: nectar-bench fig6 and nectar-obs trace both print
// its result.
func Fig6Attribute(proto string, events []obs.Event, an Fig6Anchors) (*Fig6Result, error) {
	boundaries := []struct {
		node  int
		layer obs.Layer
		name  string
		arg   string
	}{
		{an.Sender, obs.LayerHostIF, "post", ""},
		{an.Sender, obs.LayerHostIF, "cab_isr", ""},
		{an.Sender, obs.LayerMailbox, "get", proto + ".send"},
		{an.Sender, obs.LayerDatalink, "tx", ""},
		{an.Receiver, obs.LayerCAB, "rx.arrive", ""},
		{an.Receiver, obs.LayerDatalink, "rx", ""},
		{an.Receiver, obs.Layer(proto), "deliver", ""},
	}
	at := make([]sim.Time, len(boundaries))
	for i, bd := range boundaries {
		t, ok := firstEvent(events, an.Start, bd.node, bd.layer, bd.name, bd.arg)
		if !ok {
			return nil, fmt.Errorf("fig6: no %s.%s event on node %d in the trace", bd.layer, bd.name, bd.node)
		}
		at[i] = t
	}
	post, isr, req, dltx, arrive, dlrx, deliver := at[0], at[1], at[2], at[3], at[4], at[5], at[6]
	us := func(from, to sim.Time) float64 { return sim.Duration(to - from).Micros() }

	stages := []Fig6Stage{
		{"host: create message", us(an.Start, an.CreateDone)},
		{"host: begin_put/write/end_put", us(an.CreateDone, post)},
		{"host->CAB: doorbell + CAB ISR", us(post, isr)},
		{"CAB1: wake " + proto + " thread", us(isr, req)},
		{"CAB1: transport + datalink out", us(req, dltx)},
		{"wire: fiber + HUB", us(dltx, arrive)},
		{"CAB2: start-of-packet + datalink", us(arrive, dlrx)},
		{"CAB2: DMA + transport deliver", us(dlrx, deliver)},
		{"CAB2->host: signal + poll + begin_get", us(deliver, an.RxBegin)},
		{"host: read message", us(an.RxBegin, an.ReadDone)},
		{"host: end_get", us(an.ReadDone, an.RxEnd)},
	}
	res := &Fig6Result{Proto: proto, TotalUS: us(an.Start, an.RxEnd), Stages: stages}

	// The paper's three buckets: message handling on the hosts; the
	// host-CAB interface on both sides (mailbox ops over the VME bus,
	// doorbells, thread wakeup, polling); CAB-to-CAB (protocol
	// processing, DMA, fiber, HUB).
	host := stages[0].US + stages[9].US
	iface := stages[1].US + stages[2].US + stages[3].US + stages[8].US + stages[10].US
	cab := stages[4].US + stages[5].US + stages[6].US + stages[7].US
	res.HostPct = 100 * host / res.TotalUS
	res.InterfacePct = 100 * iface / res.TotalUS
	res.CABPct = 100 * cab / res.TotalUS
	return res, nil
}

// firstEvent returns the time of the first event at or after from that
// matches node, layer and name, and arg unless arg is empty.
func firstEvent(events []obs.Event, from sim.Time, node int, layer obs.Layer, name, arg string) (sim.Time, bool) {
	for _, e := range events {
		if e.At >= from && e.Node == node && e.Layer == layer && e.Name == name && (arg == "" || e.Arg == arg) {
			return e.At, true
		}
	}
	return 0, false
}

// Format renders the breakdown with the paper anchors.
func (r *Fig6Result) Format() string {
	out := fmt.Sprintf("Figure 6: one-way host-to-host %s latency breakdown\n", r.Proto)
	for _, s := range r.Stages {
		out += fmt.Sprintf("  %-36s %7.1f us\n", s.Name, s.US)
	}
	out += fmt.Sprintf("  %-36s %7.1f us\n", "TOTAL", r.TotalUS)
	out += fmt.Sprintf("  buckets: host %.0f%%, host-CAB interface %.0f%%, CAB-to-CAB %.0f%%\n",
		r.HostPct, r.InterfacePct, r.CABPct)
	out += "paper anchors: total 163 us; ~20% host / ~40% interface / ~40% CAB-to-CAB\n"
	return out
}
